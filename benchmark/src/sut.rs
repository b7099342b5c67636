//! The adapter: every call into the program under test is made from this
//! file, through public functions only. A later change that renames or
//! reshapes one of them edits this file and nothing else in the benchmark.
//!
//! Configuration names no kernel enum: it is the program's defaults
//! (`ComputeOptions::default()`, `LstmConfig::default()`, the `SimConfig`
//! defaults for the transmit and look-back parameters) with struct-update
//! overrides of `threads`, `shards`, `retrain_stagger`,
//! `staleness_age_limit`, `hidden` and `epochs` only — so a change of a
//! default shows up in the numbers as a gain or a loss.

use std::hint::black_box;
use std::sync::Arc;

use utilcast_clustering::parallel::resolve_threads;
use utilcast_core::cluster::{DynamicClusterer, DynamicClustererConfig};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_core::table::{ForecastTable, TableCell};
use utilcast_core::transmit::{ArqConfig, TransmitConfig, TransmitterBank};
use utilcast_simnet::controller::{Controller, ControllerConfig, ControllerSnapshot};
use utilcast_simnet::link::{DeliveryOptions, DeliveryPlane, LinkPlan};
use utilcast_simnet::sim::SimConfig;
use utilcast_simnet::transport::{QueryRequest, QueryResponse, ReportFrame, HEADER_BYTES};
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};
use utilcast_timeseries::lstm::LstmConfig;
use utilcast_timeseries::Forecaster;

pub use utilcast_simnet::controller::TickReport;

use crate::fleet::Rng;
use crate::workload::{Model, Workload};

/// Horizons the read plane is queried at (`h < 16`) and the depth of the
/// recompute the table is checked against.
pub const QUERY_HORIZON: usize = 16;
/// Modelled wire bytes of one scalar report entry.
pub const ENTRY_WIRE_BYTES: u64 = HEADER_BYTES + 8;

const STALENESS_AGE_LIMIT: usize = 8;
const ARQ: ArqConfig = ArqConfig {
    timeout: 4,
    backoff_cap: 3,
    max_retransmits: 6,
};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn model_spec(model: Model) -> ModelSpec {
    match model {
        Model::Arima => ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        // Sized so that one fit is a few milliseconds: a pass has to be
        // short enough to replay dozens of times within a run.
        Model::Lstm => ModelSpec::Lstm(LstmConfig {
            hidden: 8,
            epochs: 2,
            ..Default::default()
        }),
    }
}

fn compute_options(w: &Workload) -> ComputeOptions {
    ComputeOptions {
        threads: w.threads,
        shards: w.shards,
        retrain_stagger: true,
        staleness_age_limit: STALENESS_AGE_LIMIT,
        ..Default::default()
    }
}

fn controller_config(w: &Workload) -> ControllerConfig {
    let sim = SimConfig::default();
    ControllerConfig {
        num_nodes: w.nodes,
        k: w.k,
        m: sim.m,
        m_prime: sim.m_prime,
        warmup: w.warmup,
        retrain_every: w.retrain_every,
        model: model_spec(w.model),
        seed: sim.seed,
        compute: compute_options(w),
        ..Default::default()
    }
}

/// Link draws are part of the generated environment, so they are seeded
/// from the run seed like the fleet.
fn delivery_options(w: &Workload, seed: u64) -> DeliveryOptions {
    let (link, ack_link) = if w.lossy {
        (
            LinkPlan {
                loss_prob: 0.10,
                corrupt_prob: 0.001,
                dup_prob: 0.05,
                reorder_prob: 0.05,
                delay_ticks: 1,
                jitter_ticks: 2,
                seed: seed ^ 0x11,
                ..LinkPlan::perfect()
            },
            LinkPlan {
                loss_prob: 0.10,
                delay_ticks: 1,
                seed: seed ^ 0x22,
                ..LinkPlan::perfect()
            },
        )
    } else {
        (LinkPlan::perfect(), LinkPlan::perfect())
    };
    DeliveryOptions {
        link,
        ack_link,
        arq: ARQ,
    }
}

/// The controller's compute thread count as the program resolves it.
pub fn resolved_threads(w: &Workload) -> usize {
    resolve_threads(w.threads)
}

/// Every counter the program keeps about a pass, copied out at its end:
/// compared across passes (they must agree exactly) and turned into the
/// per-layer ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub bank_sent: u64,
    pub link_sent: u64,
    pub link_delivered: u64,
    pub link_lost: u64,
    pub link_corrupted: u64,
    pub link_duplicated: u64,
    pub link_reordered: u64,
    pub retransmits: u64,
    pub abandoned: u64,
    pub acks_lost: u64,
    pub frames_admitted: u64,
    pub duplicate_frames: u64,
    pub quarantined: u64,
    pub duplicates: u64,
    pub masked_node_steps: u64,
    pub mean_age: f64,
    pub peak_age: usize,
    pub model_fallbacks: u64,
    pub fallback_fit_failures: u64,
    pub table_rebuilds: u64,
    pub reads_served: u64,
}

impl Counters {
    /// The counts accumulated since `base` was taken (the ages are running
    /// statistics of the whole pass and stay as they are).
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            bank_sent: self.bank_sent - base.bank_sent,
            link_sent: self.link_sent - base.link_sent,
            link_delivered: self.link_delivered - base.link_delivered,
            link_lost: self.link_lost - base.link_lost,
            link_corrupted: self.link_corrupted - base.link_corrupted,
            link_duplicated: self.link_duplicated - base.link_duplicated,
            link_reordered: self.link_reordered - base.link_reordered,
            retransmits: self.retransmits - base.retransmits,
            abandoned: self.abandoned - base.abandoned,
            acks_lost: self.acks_lost - base.acks_lost,
            frames_admitted: self.frames_admitted - base.frames_admitted,
            duplicate_frames: self.duplicate_frames - base.duplicate_frames,
            quarantined: self.quarantined - base.quarantined,
            duplicates: self.duplicates - base.duplicates,
            masked_node_steps: self.masked_node_steps - base.masked_node_steps,
            mean_age: self.mean_age,
            peak_age: self.peak_age,
            model_fallbacks: self.model_fallbacks - base.model_fallbacks,
            fallback_fit_failures: self.fallback_fit_failures - base.fallback_fit_failures,
            table_rebuilds: self.table_rebuilds - base.table_rebuilds,
            reads_served: self.reads_served - base.reads_served,
        }
    }
}

/// What one tick's inbox held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivered {
    pub frames: u64,
    pub entries: u64,
    pub wire_bytes: u64,
}

impl std::ops::AddAssign for Delivered {
    fn add_assign(&mut self, other: Delivered) {
        self.frames += other.frames;
        self.entries += other.entries;
        self.wire_bytes += other.wire_bytes;
    }
}

/// The system under test for one pass: transmitters, delivery plane and
/// controller, wired as the slot loop of `Simulation::run` wires them.
pub struct Sut {
    nodes: usize,
    controller: Controller,
    bank: TransmitterBank,
    plane: DeliveryPlane,
    frames: Vec<ReportFrame>,
    inbox: Vec<ReportFrame>,
    decisions: Vec<bool>,
    handle: TableCell,
}

impl Sut {
    pub fn new(w: &Workload, seed: u64) -> Res<Sut> {
        let sim = SimConfig::default();
        let controller = Controller::new(controller_config(w)).map_err(err)?;
        let delivery = delivery_options(w, seed);
        delivery.validate().map_err(err)?;
        let handle = controller.table_handle();
        let per_shard = w.nodes.div_ceil(w.source_shards);
        Ok(Sut {
            nodes: w.nodes,
            controller,
            bank: TransmitterBank::new(
                TransmitConfig {
                    budget: sim.budget,
                    v0: sim.v0,
                    gamma: sim.gamma,
                },
                w.nodes,
            ),
            plane: DeliveryPlane::new(w.source_shards, &delivery),
            frames: (0..w.source_shards)
                .map(|_| ReportFrame::with_capacity(1, per_shard))
                .collect(),
            inbox: Vec::new(),
            decisions: Vec::with_capacity(w.nodes),
            handle,
        })
    }

    /// Transmit decisions against what the controller stored after the
    /// previous slot (tick 0 is the bootstrap: everyone sends).
    pub fn decide(&mut self, x: &[f64], tick: usize) {
        let zs = if tick == 0 {
            x
        } else {
            self.controller.stored()
        };
        self.bank.decide_batch_against(x, zs, &mut self.decisions);
    }

    /// One frame per source shard from this tick's decisions.
    pub fn build_frames(&mut self, x: &[f64], tick: usize) {
        let shards = self.frames.len();
        for (s, frame) in self.frames.iter_mut().enumerate() {
            frame.reset(tick);
            let lo = s * self.nodes / shards;
            let hi = (s + 1) * self.nodes / shards;
            for (i, &v) in x.iter().enumerate().take(hi).skip(lo) {
                if tick == 0 || self.decisions[i] {
                    frame.push_scalar(i, v);
                }
            }
        }
    }

    /// Entries in this tick's outgoing frames.
    pub fn built_entries(&self) -> u64 {
        self.frames.iter().map(|f| f.len() as u64).sum()
    }

    pub fn submit_collect(&mut self, tick: usize) {
        for (s, frame) in self.frames.iter().enumerate() {
            self.plane.submit(s, tick, Some(frame), self.nodes);
        }
        self.plane.collect_into(tick, &mut self.inbox);
    }

    pub fn tick(&mut self) -> Res<TickReport> {
        self.controller.tick_frames(&self.inbox).map_err(err)
    }

    pub fn ack(&mut self, tick: usize) {
        self.plane.ack_delivered(&self.inbox, tick);
    }

    pub fn delivered(&self) -> Delivered {
        let mut total = Delivered::default();
        for frame in &self.inbox {
            total += Delivered {
                frames: 1,
                entries: frame.len() as u64,
                wire_bytes: frame.wire_bytes(),
            };
        }
        total
    }

    pub fn stored(&self) -> &[f64] {
        self.controller.stored()
    }

    /// Brings the read plane up to the current generation.
    pub fn refresh(&mut self) -> Res<Arc<ForecastTable>> {
        self.controller.forecast_table().map_err(err)
    }

    /// The recompute path the table must equal bit for bit:
    /// `out[h][node]`.
    pub fn recompute(&self) -> Res<Vec<Vec<f64>>> {
        self.controller.forecast(QUERY_HORIZON).map_err(err)
    }

    /// `reads` point queries as one reader serves them: each loads the
    /// published table through a detached handle and resolves one seeded
    /// random `(node, h)`. Returns how many failed (nothing published, or
    /// a non-finite answer).
    pub fn read_burst(&self, rng: &mut Rng, reads: usize) -> u64 {
        let mut failed = 0u64;
        let mut sum = 0.0f64;
        for _ in 0..reads {
            let (node, h) = draw_query(rng, self.nodes);
            match self.handle.load() {
                Some(table) => {
                    let v = table.node_forecast(node, h);
                    failed += u64::from(!v.is_finite());
                    sum += v;
                }
                None => failed += 1,
            }
        }
        black_box(sum);
        self.handle.record_reads(reads as u64);
        failed
    }

    /// The handle half of a read alone (traced run): `loads` loads.
    pub fn load_burst(&self, loads: usize) -> u64 {
        (0..loads)
            .map(|_| u64::from(black_box(self.handle.load()).is_none()))
            .sum()
    }

    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint(self.controller.snapshot())
    }

    /// Feeds this tick's inbox to a restored controller as well.
    pub fn replay_on(&self, replica: &mut Replica) -> Res<TickReport> {
        replica.0.tick_frames(&self.inbox).map_err(err)
    }

    pub fn counters(&self) -> Counters {
        let link = self.plane.summary();
        let c = &self.controller;
        Counters {
            bank_sent: self.bank.total_sent(),
            link_sent: link.sent,
            link_delivered: link.delivered,
            link_lost: link.lost,
            link_corrupted: link.corrupted,
            link_duplicated: link.duplicated,
            link_reordered: link.reordered,
            retransmits: link.retransmits,
            abandoned: link.abandoned,
            acks_lost: link.acks_lost,
            frames_admitted: c.frames_admitted(),
            duplicate_frames: c.duplicate_frames(),
            quarantined: c.quarantined(),
            duplicates: c.duplicates(),
            masked_node_steps: c.masked_node_steps(),
            mean_age: c.age().mean(),
            peak_age: c.age().peak(),
            model_fallbacks: c.model_fallbacks(),
            fallback_fit_failures: c.fallback_fit_failures(),
            table_rebuilds: c.forecast_table_rebuilds(),
            reads_served: c.forecast_reads_served(),
        }
    }
}

fn draw_query(rng: &mut Rng, nodes: usize) -> (usize, usize) {
    let r = rng.next_u64();
    let node = (((r >> 32) * nodes as u64) >> 32) as usize;
    (node, (r as usize) % QUERY_HORIZON)
}

/// Whether the table answers every `(node, h)` with exactly the bits of
/// the recompute path's `recomputed[h][node]`.
pub fn table_equals(table: &ForecastTable, recomputed: &[Vec<f64>]) -> bool {
    recomputed.len() == QUERY_HORIZON
        && recomputed.iter().enumerate().all(|(h, row)| {
            row.len() == table.num_nodes()
                && row
                    .iter()
                    .enumerate()
                    .all(|(node, v)| table.node_forecast(node, h).to_bits() == v.to_bits())
        })
}

/// Every node's forecast at horizon index `h`, copied out for scoring.
pub fn forecasts_at(table: &ForecastTable, h: usize) -> Vec<f64> {
    (0..table.num_nodes())
        .map(|node| table.node_forecast(node, h))
        .collect()
}

/// The table half of a read alone (traced run): `reads` resolutions
/// against one already-loaded table.
pub fn table_read_burst(table: &ForecastTable, rng: &mut Rng, reads: usize) {
    let mut sum = 0.0f64;
    for _ in 0..reads {
        let (node, h) = draw_query(rng, table.num_nodes());
        sum += table.node_forecast(node, h);
    }
    black_box(sum);
}

/// `queries` round trips of the query wire codec: encode a request,
/// decode it, resolve it, encode the response, decode it. Returns how
/// many did not come back bit-identical.
pub fn query_codec_burst(table: &ForecastTable, rng: &mut Rng, queries: usize) -> u64 {
    let mut buf = Vec::with_capacity(64);
    let mut failed = 0u64;
    for _ in 0..queries {
        let (node, horizon) = draw_query(rng, table.num_nodes());
        buf.clear();
        QueryRequest { node, horizon }.encode_into(&mut buf);
        let answer = QueryRequest::decode(&buf)
            .and_then(|request| QueryResponse::from_table(table, &request));
        let round_trip = answer.and_then(|response| {
            buf.clear();
            response.encode_into(&mut buf);
            QueryResponse::decode(&buf).filter(|back| {
                back.node == node
                    && back.horizon == horizon
                    && back.value.to_bits() == response.value.to_bits()
            })
        });
        failed += u64::from(black_box(round_trip).is_none());
    }
    failed
}

/// A controller checkpoint, opaque outside this file.
pub struct Checkpoint(ControllerSnapshot);

impl Checkpoint {
    pub fn serialize(&self) -> Res<String> {
        serde_json::to_string(&self.0).map_err(err)
    }

    pub fn deserialize(json: &str) -> Res<Checkpoint> {
        serde_json::from_str(json).map(Checkpoint).map_err(err)
    }
}

/// A controller restored from a checkpoint, replayed beside the live one.
pub struct Replica(Controller);

impl Replica {
    pub fn restore(checkpoint: Checkpoint) -> Res<Replica> {
        Controller::restore(checkpoint.0).map(Replica).map_err(err)
    }

    pub fn stored(&self) -> &[f64] {
        self.0.stored()
    }

    /// Mirrors the live controller's read-plane activity so the counters
    /// inside the two `TickReport`s stay comparable.
    pub fn mirror_refresh(&mut self, reads: usize) -> Res<()> {
        self.0.forecast_table().map_err(err)?;
        self.0.table_handle().record_reads(reads as u64);
        Ok(())
    }
}

/// FNV-1a over every field of a tick report: the passes' deterministic
/// fingerprint.
pub fn hash_tick(hash: &mut u64, r: &TickReport) {
    let words = [
        r.reports_applied as u64,
        r.quarantined as u64,
        r.duplicates as u64,
        r.mean_age.to_bits(),
        r.peak_age as u64,
        r.masked as u64,
        r.intermediate_rmse.to_bits(),
        u64::from(r.retrained),
        r.fallback_fit_failures,
        r.forecast_table_rebuilds,
        r.forecast_reads_served,
    ];
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Shadow instances of the layers the controller hides, built from the
/// same configuration and fed `controller.stored()` in the traced run so
/// their calls can be timed from outside. They see the raw stored vector,
/// not the controller's masked one, so under degraded links their timings
/// attribute the tick rather than replicate it.
pub struct Shadow {
    clusterer: DynamicClusterer,
    stage: ForecastStage,
    model: ModelSpec,
    k: usize,
    fits: usize,
}

impl Shadow {
    pub fn new(w: &Workload) -> Res<Shadow> {
        let c = controller_config(w);
        let stage = ForecastStage::new(ForecastStageConfig {
            num_nodes: c.num_nodes,
            k: c.k,
            m: c.m,
            m_prime: c.m_prime,
            warmup: c.warmup,
            retrain_every: c.retrain_every,
            model: c.model.clone(),
            seed: c.seed,
            compute: c.compute,
            ..Default::default()
        })
        .map_err(err)?;
        Ok(Shadow {
            clusterer: DynamicClusterer::new(DynamicClustererConfig {
                k: c.k,
                m: c.m,
                seed: c.seed,
                compute: c.compute,
                ..Default::default()
            }),
            stage,
            model: c.model,
            k: c.k,
            fits: 0,
        })
    }

    pub fn cluster_step(&mut self, stored: &[f64]) -> Res<()> {
        self.clusterer.step_flat(stored, 1).map(|_| ()).map_err(err)
    }

    /// Clustering + model update; returns whether any model retrained.
    pub fn stage_step(&mut self, stored: &[f64]) -> Res<bool> {
        self.stage.step(stored).map(|r| r.retrained).map_err(err)
    }

    pub fn build_table(&self) -> Res<()> {
        self.stage
            .build_forecast_table()
            .map(|t| drop(black_box(t)))
            .map_err(err)
    }

    /// One cold fit of the workload's model on a cluster's centroid
    /// history, clusters taken round-robin. Returns whether it fitted (a
    /// history still too short for the model is not an error here; the
    /// controller degrades such a cluster to sample-and-hold).
    pub fn fit_next(&mut self) -> bool {
        let j = self.fits % self.k;
        self.fits += 1;
        let mut model = self.model.build();
        model.fit(self.stage.centroid_history(j)).is_ok()
    }
}
