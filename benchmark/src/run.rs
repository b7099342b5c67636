//! The measured loop: one closed-loop client driving one slot at a time,
//! every call into the program timed from outside, plus the built-in
//! correctness checks. A run replays the identical seeded pass dozens of
//! times in one process, then runs a few more fleets once each for the
//! accuracy sums; `report.rs` turns the passes into metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::fleet::{Fleet, Rng};
use crate::sut::{
    self, Checkpoint, Counters, Delivered, Replica, Shadow, Sut, TickReport, ENTRY_WIRE_BYTES,
};
use crate::trace::Recorder;
use crate::workload::{Workload, REPLAY_TICKS};

/// Horizon indices scored against the fleet's truth: 1 and 8 ticks ahead.
const SCORED_HORIZONS: [usize; 2] = [0, 7];
/// Query-codec round trips and split load/read probes per refresh in the
/// traced pass.
pub const TRACE_PROBES: usize = 65_536;
const READ_STREAM: u64 = 0x5EED_0F5E_ED00;

/// Operations attempted and failed, by kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops(pub BTreeMap<&'static str, (u64, u64)>);

impl Ops {
    pub fn add(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let slot = self.0.entry(kind).or_default();
        slot.0 += attempted;
        slot.1 += failed;
    }

    fn one(&mut self, kind: &'static str, ok: bool) {
        self.add(kind, 1, u64::from(!ok));
    }

    pub fn merge(&mut self, other: &Ops) {
        for (kind, &(attempted, failed)) in &other.0 {
            self.add(kind, attempted, failed);
        }
    }

    pub fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), &(da, df)| (a + da, f + df))
    }
}

/// Everything about a pass that must repeat exactly on every pass of the
/// same seed: a divergence is a failed check.
#[derive(Debug, Clone, PartialEq)]
pub struct Deterministic {
    pub tick_hash: u64,
    /// Whole pass, and the part accumulated over the measured ticks.
    pub counters: Counters,
    pub measured: Counters,
    pub delivered: Delivered,
    /// Entries put into outgoing frames over the measured ticks.
    pub built_entries: u64,
    pub staleness_sq: f64,
    /// Squared forecast error and scored values per scored horizon.
    pub forecast_sq: [f64; 2],
    pub forecast_n: [u64; 2],
    pub intermediate_rmse_sum: f64,
    pub retrain_ticks: u64,
    pub checkpoint_bytes: u64,
    pub ops: Ops,
}

#[derive(Debug)]
pub struct PassOutput {
    /// Pass start to the first measured tick: construction + warm ticks.
    pub setup_s: f64,
    pub rec: Recorder,
    /// Per measured tick: decide through ack, seconds.
    pub collect: Vec<f64>,
    /// Per checkpoint: snapshot + serialize, and deserialize + restore.
    pub checkpoint: Vec<f64>,
    pub restore: Vec<f64>,
    /// Per measured tick: whether any model retrained.
    pub retrained: Vec<bool>,
    pub det: Deterministic,
    pub failures: Vec<String>,
}

impl PassOutput {
    /// Controller-side slot seconds of the whole pass as it ran.
    pub fn slot_seconds(&self) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        sum(&self.collect) + sum(self.rec.durations("refresh")) + sum(&self.checkpoint)
    }
}

/// A fixed compute + gather kernel (~10 ms), timed every few passes so a
/// run that sat in one of the host's slow phases is visible in its result.
pub fn calibrate_ms() -> f64 {
    const TABLE: usize = 1 << 20;
    const STEPS: usize = 3 << 20;
    let table: Vec<f64> = (0..TABLE).map(|i| (i % 977) as f64 * 1e-3).collect();
    let start = Instant::now();
    let (mut acc, mut idx) = (0.0f64, 12_345usize);
    for _ in 0..STEPS {
        idx = idx
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc * 0.999 + table[(idx >> 33) % TABLE];
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A restored controller replayed beside the live one.
struct Replay {
    replica: Replica,
    left: usize,
    identical: bool,
}

struct Pass<'a> {
    w: &'a Workload,
    failures: Vec<String>,
    ops: Ops,
}

impl Pass<'_> {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(format!("{}: {what}", self.w.name));
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops.one("checks", ok);
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `result` as one operation of `kind`; `None` when it failed.
    fn op<T>(&mut self, kind: &'static str, result: Result<T, String>) -> Option<T> {
        self.ops.one(kind, result.is_ok());
        result.map_err(|e| self.fail(format!("{kind}: {e}"))).ok()
    }

    fn finish_replay(&mut self, replay: Option<Replay>) {
        if let Some(r) = replay {
            self.check(r.identical, || {
                "restored controller diverged from the live one in the side replay".into()
            });
        }
    }
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timed replay: the end-to-end timings are minima over these.
    Timed,
    /// A timed replay that also keeps spans and drives the shadow layers.
    Traced,
    /// One pass of an accuracy fleet: forecasts are scored after every
    /// tick, not only at the workload's refreshes (from the untimed
    /// recompute path, which the table equals bit for bit), so the accuracy
    /// sums do not hang on the handful of refreshes a sparse schedule has.
    Accuracy,
}

/// One pass: fresh fleet, controller, bank and plane; `warm_ticks` then
/// `ticks` slots.
pub fn run_pass(w: &Workload, seed: u64, kind: Kind) -> Result<PassOutput, String> {
    let traced = kind == Kind::Traced;
    let pass_start = Instant::now();
    let mut fleet = Fleet::new(seed, w.nodes, w.k);
    let mut sut = Sut::new(w, seed)?;
    let mut shadow = traced.then(|| Shadow::new(w)).transpose()?;
    let mut rec = Recorder::new(traced);
    let mut read_rng = Rng::new(seed ^ READ_STREAM);
    let mut pass = Pass {
        w,
        failures: Vec::new(),
        ops: Ops::default(),
    };

    let mut setup_s = 0.0;
    let mut collect = Vec::with_capacity(w.ticks);
    let (mut checkpoint, mut restore) = (Vec::new(), Vec::new());
    let mut retrained = Vec::with_capacity(w.ticks);
    let mut tick_hash = sut::HASH_SEED;
    let mut delivered = Delivered::default();
    let mut built_entries = 0u64;
    let mut warm_counters = sut.counters();
    let mut staleness_sq = 0.0f64;
    let mut forecast_sq = [0.0f64; 2];
    let mut forecast_n = [0u64; 2];
    let mut intermediate_rmse_sum = 0.0f64;
    let mut checkpoint_bytes = 0u64;
    // Forecasts copied out at a refresh, waiting for their target tick:
    // (measured tick they predict, scored-horizon slot, values).
    let mut pending: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    let mut refreshes_done = 0usize;
    let mut replay: Option<Replay> = None;

    for g in 0..w.warm_ticks + w.ticks {
        let measured = g.checked_sub(w.warm_ticks);
        if measured == Some(0) {
            setup_s = pass_start.elapsed().as_secs_f64();
            rec = Recorder::new(traced);
            warm_counters = sut.counters();
        }
        let x = fleet.step();
        if let Some(i) = measured {
            pending.retain(|(target, slot, forecast)| {
                if *target != i {
                    return true;
                }
                forecast_sq[*slot] += forecast
                    .iter()
                    .zip(x)
                    .map(|(f, t)| (f - t) * (f - t))
                    .sum::<f64>();
                forecast_n[*slot] += x.len() as u64;
                false
            });
        }

        let (_, d_decide, _) = rec.span("decide", g, None, || sut.decide(x, g));
        let (_, d_frame, _) = rec.span("frame", g, None, || sut.build_frames(x, g));
        let (_, d_link, _) = rec.span("submit_collect", g, None, || sut.submit_collect(g));
        let (report, d_tick, tick_id) = rec.span("tick_frames", g, None, || sut.tick());
        let (_, d_ack, _) = rec.span("ack", g, None, || sut.ack(g));

        if let Some(shadow) = &mut shadow {
            let (stepped, _, stage_id) = rec.span("shadow.stage_step", g, tick_id, || {
                shadow.stage_step(sut.stored())
            });
            let (clustered, _, _) = rec.span("shadow.cluster_step", g, stage_id, || {
                shadow.cluster_step(sut.stored())
            });
            if measured.is_some() {
                pass.op("shadow_steps", clustered);
                if pass.op("shadow_steps", stepped) == Some(true) {
                    // Not a child of the stage span: a cold fit is extra
                    // attribution, not part of the slot.
                    rec.span("shadow.fit", g, None, || shadow.fit_next());
                }
            }
        }

        let Some(i) = measured else { continue };
        collect.push(d_decide + d_frame + d_link + d_tick + d_ack);
        built_entries += sut.built_entries();
        delivered += sut.delivered();
        staleness_sq += sut
            .stored()
            .iter()
            .zip(x)
            .map(|(z, t)| (z - t) * (z - t))
            .sum::<f64>();
        let report: Option<TickReport> = pass.op("ticks", report);
        if let Some(r) = &report {
            sut::hash_tick(&mut tick_hash, r);
            intermediate_rmse_sum += r.intermediate_rmse;
        }
        retrained.push(report.as_ref().is_some_and(|r| r.retrained));

        if let Some(r) = &mut replay {
            let twin = sut.replay_on(&mut r.replica).ok();
            r.identical &=
                twin.is_some() && twin == report && bits_equal(r.replica.stored(), sut.stored());
            r.left -= 1;
            if r.left == 0 {
                pass.finish_replay(replay.take());
            }
        }

        if Workload::due(w.refresh_every, i) {
            let (table, _, _) = rec.span("refresh", g, None, || sut.refresh());
            if let Some(table) = pass.op("refreshes", table) {
                refreshes_done += 1;
                if let Some(r) = &mut replay {
                    r.identical &= r.replica.mirror_refresh(w.reads).is_ok();
                }
                if refreshes_done == 1 || refreshes_done == w.refreshes() {
                    let same = sut
                        .recompute()
                        .is_ok_and(|recomputed| sut::table_equals(&table, &recomputed));
                    pass.check(same, || format!("table != recompute at measured tick {i}"));
                }
                for (slot, &h) in SCORED_HORIZONS.iter().enumerate() {
                    if i + h + 1 < w.ticks {
                        pending.push((i + h + 1, slot, sut::forecasts_at(&table, h)));
                    }
                }
                let (failed, _, _) =
                    rec.span("reads", g, None, || sut.read_burst(&mut read_rng, w.reads));
                pass.ops.add("reads", w.reads as u64, failed);
                if failed > 0 {
                    pass.fail(format!("{failed} reads failed at measured tick {i}"));
                }
                if let Some(shadow) = &shadow {
                    let mut probe_rng = Rng::new(seed ^ g as u64);
                    let (built, _, _) =
                        rec.span("shadow.build_table", g, None, || shadow.build_table());
                    pass.op("shadow_steps", built);
                    let (bad, _, _) = rec.span("query_codec", g, None, || {
                        sut::query_codec_burst(&table, &mut probe_rng, TRACE_PROBES)
                    });
                    pass.check(bad == 0, || {
                        format!("{bad} query codec round trips differed")
                    });
                    let (missing, _, _) =
                        rec.span("table.load", g, None, || sut.load_burst(TRACE_PROBES));
                    pass.check(missing == 0, || format!("{missing} loads found no table"));
                    rec.span("table.read", g, None, || {
                        sut::table_read_burst(&table, &mut probe_rng, TRACE_PROBES)
                    });
                }
            }
        } else if kind == Kind::Accuracy {
            if let Some(mut recomputed) = pass.op("scores", sut.recompute()) {
                for (slot, &h) in SCORED_HORIZONS.iter().enumerate() {
                    if i + h + 1 < w.ticks {
                        pending.push((i + h + 1, slot, std::mem::take(&mut recomputed[h])));
                    }
                }
            }
        }

        if Workload::due(w.checkpoint_every, i) {
            pass.finish_replay(replay.take());
            let (snapshot, d_snapshot, _) = rec.span("snapshot", g, None, || sut.snapshot());
            let (json, d_serialize, _) = rec.span("serialize", g, None, || snapshot.serialize());
            drop(snapshot);
            checkpoint.push(d_snapshot + d_serialize);
            let json = pass.op("checkpoints", json).unwrap_or_default();
            checkpoint_bytes = json.len() as u64;
            let (parsed, d_deserialize, _) =
                rec.span("deserialize", g, None, || Checkpoint::deserialize(&json));
            let (restored, d_restore, _) =
                rec.span("restore", g, None, || parsed.and_then(Replica::restore));
            restore.push(d_deserialize + d_restore);
            replay = pass.op("restores", restored).map(|replica| Replay {
                replica,
                left: REPLAY_TICKS,
                identical: true,
            });
        }
    }
    pass.finish_replay(replay.take());

    let counters = sut.counters();
    pass.check(
        counters.frames_admitted + counters.duplicate_frames == counters.link_delivered,
        || {
            format!(
                "admitted {} + duplicate {} frames != delivered {}",
                counters.frames_admitted, counters.duplicate_frames, counters.link_delivered
            )
        },
    );
    if !w.lossy {
        pass.check(counters.abandoned == 0, || {
            format!("{} frames abandoned on perfect links", counters.abandoned)
        });
    }
    pass.check(
        delivered.wire_bytes == delivered.entries * ENTRY_WIRE_BYTES,
        || {
            format!(
                "{} wire bytes for {} delivered entries",
                delivered.wire_bytes, delivered.entries
            )
        },
    );

    let retrain_ticks = retrained.iter().filter(|&&r| r).count() as u64;
    Ok(PassOutput {
        setup_s,
        rec,
        collect,
        checkpoint,
        restore,
        retrained,
        det: Deterministic {
            tick_hash,
            measured: counters.since(&warm_counters),
            counters,
            delivered,
            built_entries,
            staleness_sq,
            forecast_sq,
            forecast_n,
            intermediate_rmse_sum,
            retrain_ticks,
            checkpoint_bytes,
            ops: pass.ops,
        },
        failures: pass.failures,
    })
}

/// All passes of one run.
#[derive(Debug)]
pub struct RunOutput {
    /// The timed replays of the run seed's fleet: every timing comes from
    /// these, as a per-sample minimum over them.
    pub passes: Vec<PassOutput>,
    /// The deterministic outputs of the further fleets, one pass each: the
    /// accuracy and wire metrics are the median over these and the timed
    /// fleet.
    pub accuracy: Vec<Deterministic>,
    /// The fastest traced pass (`--trace 1` only).
    pub traced: Option<PassOutput>,
    /// Set-up seconds of every untraced pass of the run.
    pub setups: Vec<f64>,
    /// The calibration kernel, timed every [`CALIBRATE_EVERY`] passes, ms.
    pub calib_ms: Vec<f64>,
    /// `VmHWM` after the untraced passes, MB.
    pub peak_rss_mb: f64,
    /// Operations of every pass plus the cross-pass checks.
    pub ops: Ops,
    pub failures: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced and traced replays of a traced run (fewer when the workload
/// itself replays fewer). The fastest of each is kept: the per-layer
/// numbers are an attribution, not a gate, so one quiet pass serves better
/// than a statistic over several.
pub const TRACE_PASSES: usize = 4;
const CALIBRATE_EVERY: usize = 8;

/// The seed of accuracy fleet `f` (1-based; fleet 0 is the run seed's).
fn fleet_seed(seed: u64, f: usize) -> u64 {
    Rng::new(seed ^ (f as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Collects the passes of a run, their operations and failures, and checks
/// the replays of one seed against each other.
struct Collector<'a> {
    w: &'a Workload,
    ops: Ops,
    failures: Vec<String>,
    setups: Vec<f64>,
    calib_ms: Vec<f64>,
    done: usize,
}

impl Collector<'_> {
    fn pass(&mut self, seed: u64, kind: Kind) -> Result<PassOutput, String> {
        if self.done.is_multiple_of(CALIBRATE_EVERY) {
            self.calib_ms.push(calibrate_ms());
        }
        self.done += 1;
        let pass = run_pass(self.w, seed, kind)?;
        self.ops.merge(&pass.det.ops);
        self.failures.extend(pass.failures.iter().cloned());
        if kind != Kind::Traced {
            self.setups.push(pass.setup_s);
        }
        Ok(pass)
    }

    /// A replay must repeat every deterministic output of the first pass.
    /// A traced pass runs extra probes; everything else must match.
    fn replayed(&mut self, first: &Deterministic, replay: &PassOutput) {
        let mut det = replay.det.clone();
        if replay.rec.traced() {
            det.ops = first.ops.clone();
        }
        let same = det == *first;
        self.ops.add("checks", 1, u64::from(!same));
        if !same {
            self.failures.push(format!(
                "{}: a replay diverged from the first pass on a deterministic output",
                self.w.name
            ));
        }
    }
}

fn fastest(passes: Vec<PassOutput>) -> Option<PassOutput> {
    passes
        .into_iter()
        .min_by(|a, b| a.slot_seconds().total_cmp(&b.slot_seconds()))
}

/// An end-to-end run: `w.passes` timed replays of the run seed's fleet and
/// one pass of each accuracy fleet. A traced run: [`TRACE_PASSES`] untraced
/// replays (the base of the overhead ratio) and as many traced ones, which
/// also drive the shadow layers. Checks that all replays of the run seed
/// agree on every deterministic output.
pub fn run(w: &Workload, seed: u64, traced: bool) -> Result<RunOutput, String> {
    let mut c = Collector {
        w,
        ops: Ops::default(),
        failures: Vec::new(),
        setups: Vec::new(),
        calib_ms: Vec::new(),
        done: 0,
    };
    // The accuracy fleets go first: they also bring the process (heap,
    // caches, branch predictors) to the state the timed replays repeat in.
    let fleets = if traced { 0 } else { w.accuracy_fleets };
    let accuracy = (1..=fleets)
        .map(|f| {
            c.pass(fleet_seed(seed, f), Kind::Accuracy)
                .map(|pass| pass.det)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let trace_passes = TRACE_PASSES.min(w.passes);
    let untraced = if traced { trace_passes } else { w.passes };
    let mut passes = (0..untraced)
        .map(|_| c.pass(seed, Kind::Timed))
        .collect::<Result<Vec<_>, _>>()?;
    let peak_rss_mb = peak_rss_mb();
    let traced_passes = (0..if traced { trace_passes } else { 0 })
        .map(|_| c.pass(seed, Kind::Traced))
        .collect::<Result<Vec<_>, _>>()?;
    c.calib_ms.push(calibrate_ms());

    let first = passes.first().ok_or("a run needs a pass")?.det.clone();
    for replay in passes.iter().skip(1).chain(&traced_passes) {
        c.replayed(&first, replay);
    }
    let traced = fastest(traced_passes);
    if traced.is_some() {
        passes = fastest(passes).into_iter().collect();
    }
    Ok(RunOutput {
        passes,
        accuracy,
        traced,
        setups: c.setups,
        calib_ms: c.calib_ms,
        peak_rss_mb,
        ops: c.ops,
        failures: c.failures,
    })
}
