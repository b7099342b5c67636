//! Multi-threaded driver: node shards on worker threads, crossbeam
//! channels to the controller, and a supervisor that survives worker
//! crashes.
//!
//! Nodes are partitioned into `shards` contiguous ranges. The supervisor
//! owns every shard's [`TransmitterBank`]; each tick it ships every worker
//! its shard's bank together with the measurements and the controller's
//! current stored values, the workers run the crate's one shard collector
//! in parallel and hand bank and [`ReportFrame`] back, and the per-shard
//! frames go to the same slot engine as the single-threaded driver's one
//! frame. The controller admits them in shard — hence node — order.
//!
//! Because decisions only depend on per-node transmitter state and the
//! shared stored values, the run is **deterministic and identical to the
//! single-threaded driver**, regardless of thread scheduling.
//!
//! The driver is *supervised*: the workers are stateless, and the
//! supervisor keeps each shard's pre-tick bank until the worker returns.
//! When a worker panics, the supervisor reaps it, respawns the shard and
//! re-sends the interrupted tick with that copy, so the rerun is
//! bit-identical. Only when the respawn budget is exhausted does the run
//! fail, with the worker's panic payload in [`SimError::WorkerFailed`]. The
//! supervisor can also checkpoint the controller periodically and restore
//! it from the latest checkpoint on an (injected) controller crash — see
//! [`SupervisorOptions`].

use crossbeam::channel::{self, Receiver, Sender};
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use utilcast_core::transmit::TransmitterBank;
use utilcast_datasets::{Resource, Trace};

use crate::sim::{SimConfig, SimReport};
use crate::slot::{collect_shard, Slot};
use crate::transport::ReportFrame;
use crate::SimError;

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

/// One shard's work for one tick, handed back filled in: the shard's
/// `nodes` of the tick's measurements `x` and stored values `z`.
struct Job {
    t: usize,
    nodes: Range<usize>,
    x: Arc<[f64]>,
    z: Arc<[f64]>,
    bank: TransmitterBank,
    frame: ReportFrame,
}

/// One worker thread's endpoints.
struct Worker {
    jobs: Sender<Job>,
    done: Receiver<Job>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns a worker that panics on the tick `panic_at`, if given.
    fn spawn(panic_at: Option<usize>) -> Worker {
        let (jobs, job_rx) = channel::unbounded::<Job>();
        let (done_tx, done) = channel::unbounded::<Job>();
        let handle = thread::spawn(move || {
            let mut decisions = Vec::new();
            while let Ok(mut job) = job_rx.recv() {
                if panic_at == Some(job.t) {
                    // lint:allow(panic): injected fault for the chaos suite;
                    // the supervisor must observe a real worker panic
                    panic!(
                        "injected fault: worker for nodes {:?} at tick {}",
                        job.nodes, job.t
                    );
                }
                // lint:allow(panic-path): `nodes` is a sub-range of 0..N, and `x`
                // and `z` are the tick's N measurements and stored values
                let (xs, zs) = (&job.x[job.nodes.clone()], &job.z[job.nodes.clone()]);
                collect_shard(
                    &mut job.bank,
                    job.t,
                    job.nodes.start,
                    xs,
                    zs,
                    &mut decisions,
                    &mut job.frame,
                );
                if done_tx.send(job).is_err() {
                    break;
                }
            }
        });
        Worker {
            jobs,
            done,
            handle: Some(handle),
        }
    }

    /// Joins a dead worker and renders its panic payload.
    fn reap(&mut self) -> String {
        match self.handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_reason(payload),
            Some(Ok(())) => "worker exited unexpectedly".to_string(),
            None => "worker already reaped".to_string(),
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
/// respawn from the pre-tick bank, periodic controller checkpointing, and
/// fault injection (see [`SupervisorOptions`]).
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
    let n = trace.num_nodes();
    let shards = shards.min(n);
    let checkpoints = options.checkpoint_every > 0 || options.controller_crash_at.is_some();
    let mut slot = Slot::new(
        config,
        n,
        shards,
        checkpoints.then_some(options.checkpoint_every),
    )?;

    // Shard boundaries: contiguous, near-equal ranges.
    let bounds: Vec<Range<usize>> = (0..shards)
        .map(|s| s * n / shards..(s + 1) * n / shards)
        .collect();
    let mut banks: Vec<TransmitterBank> = bounds
        .iter()
        .map(|nodes| TransmitterBank::new(config.transmit_config(), nodes.len()))
        .collect();
    let mut frames: Vec<ReportFrame> = (0..shards).map(|_| ReportFrame::new(1)).collect();
    let mut workers: Vec<Worker> = (0..shards)
        .map(|s| {
            Worker::spawn(
                options
                    .worker_panic_at
                    .and_then(|(ps, pt)| (ps == s).then_some(pt)),
            )
        })
        .collect();
    let mut respawns_left = options.max_respawns;

    for t in 0..trace.num_steps() {
        if options.controller_crash_at == Some(t) {
            slot.crash()?;
        }
        let x: Arc<[f64]> = trace.snapshot(resource, t)?.into();
        let z: Arc<[f64]> = slot.stored().into();
        // Every job carries a copy of its shard's bank: `banks[s]` stays
        // the pre-tick state until the worker hands the new one back.
        let job = |s: usize, bank: &TransmitterBank, frame: ReportFrame| Job {
            t,
            nodes: bounds[s].clone(),
            x: Arc::clone(&x),
            z: Arc::clone(&z),
            bank: bank.clone(),
            frame,
        };
        for s in 0..shards {
            // A dead worker surfaces at the receive below.
            let frame = std::mem::replace(&mut frames[s], ReportFrame::new(1));
            let _ = workers[s].jobs.send(job(s, &banks[s], frame));
        }
        for s in 0..shards {
            let done = loop {
                if let Ok(done) = workers[s].done.recv() {
                    break done;
                }
                let reason = workers[s].reap();
                if respawns_left == 0 {
                    return Err(SimError::WorkerFailed { shard: s, reason });
                }
                respawns_left -= 1;
                workers[s] = Worker::spawn(None);
                // The in-flight frame buffer died with the worker.
                let _ = workers[s].jobs.send(job(s, &banks[s], ReportFrame::new(1)));
            };
            banks[s] = done.bank;
            frames[s] = done.frame;
        }
        let sent = frames.iter().map(|f| f.len() as u64).sum();
        slot.step(&x, &frames, sent)?;
    }
    // Closing the job channels shuts the workers down.
    for Worker { jobs, handle, .. } in workers {
        drop(jobs);
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
    Ok(slot.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSummary;
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
        // The dying worker takes the shard's bank and frame buffer with it;
        // the respawned worker reruns the tick from the pre-tick bank.
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
