//! Tier-1 golden for the fault-injection driver, `run_with_faults`.
//!
//! Recorded while the driver still sent one heap record per report through
//! a per-report controller entry point, before it moved onto the frame
//! ingest path every other driver uses, so the move has to reproduce:
//!
//! * (a) node crashes and restarts, report loss and a partition window;
//! * (b) controller crashes restored from periodic checkpoints, with
//!   staleness masking off (`staleness_age_limit` 0) and on (3), serving
//!   query probes;
//! * (c) a degraded `FaultPlan::link` — delay, jitter, reordering,
//!   duplication, loss, corruption and a bounded capacity — under flat and
//!   four-shard clustering. Reports of different ticks and duplicate copies
//!   of one report reach the controller in the same tick, which the test
//!   asserts, so the order the driver hands them over in is exercised;
//! * (d) plan (a) with plan-stage corruption.
//!
//! Every `FaultReport` field, floats by their bits, is folded into one
//! FNV-1a hash per run. Plans (a)–(c) are bitwise equal to the recording.
//! In (d) every field but `sim.bytes` is: plan-stage corruption now uses
//! the link's width-preserving corruption model, whose "out of range"
//! variant writes `-1.0` where the recorded driver sent an empty payload.
//! That report is quarantined either way, but it is metered with its
//! 8-byte value, so `sim.bytes` rises by 8 per such draw — a positive
//! multiple of 8, at most `8 · corrupted_reports`.
//!
//! The fleet uses only `+ - * /`; the transmitters' `V_t` goes through
//! `powf`, whose result enters a strict comparison only. On an intended
//! change of results, re-record from the table the failing assertion
//! prints.

use utilcast::core::compute::ComputeOptions;
use utilcast::core::pipeline::ModelSpec;
use utilcast::datasets::{Resource, Trace};
use utilcast::simnet::faults::{run_with_faults, FaultPlan, FaultReport, PartitionWindow};
use utilcast::simnet::link::{LinkPlan, LinkSummary};
use utilcast::simnet::sim::{SimConfig, SimReport};
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};

const NODES: usize = 48;
const STEPS: usize = 72;
const K: usize = 4;

/// SplitMix64 step mapped to a uniform in `[-1, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A period-`period` triangle wave in `[-1, 1]`.
fn triangle(t: usize, period: usize) -> f64 {
    let phase = (t % period) as f64 / period as f64;
    1.0 - 4.0 * (phase - 0.5).abs()
}

/// Four utilization groups drifting on different periods plus, every sixth
/// node, a wanderer sweeping across them; all values inside `(0, 1)`.
fn fleet_trace() -> Trace {
    let mut noise = 29u64;
    let mut data = Vec::with_capacity(NODES * STEPS);
    for t in 0..STEPS {
        for i in 0..NODES {
            let group = i % K;
            let level = 0.14 + 0.22 * group as f64 + 0.05 * triangle(t + 5 * group, 18 + 4 * group);
            let own = 0.015 * uniform(&mut noise);
            data.push(if i % 6 == 5 {
                0.5 + 0.42 * triangle(t + i, 14 + i % 5) + own
            } else {
                level + own
            });
        }
    }
    Trace::from_flat(vec![Resource::Cpu], NODES, STEPS, data).expect("shape matches")
}

fn sim_config(shards: usize, staleness_age_limit: usize) -> SimConfig {
    SimConfig {
        k: K,
        warmup: 24,
        retrain_every: 16,
        model: ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        seed: 7,
        compute: ComputeOptions {
            shards,
            retrain_stagger: true,
            staleness_age_limit,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// (a) Node crashes and restarts, report loss, and one partition window.
fn node_faults() -> FaultPlan {
    FaultPlan {
        crash_prob: 0.02,
        restart_prob: 0.2,
        loss_prob: 0.05,
        partitions: vec![PartitionWindow {
            start: 20,
            end: 34,
            node_start: 8,
            node_end: 20,
        }],
        seed: 3,
        ..FaultPlan::none()
    }
}

/// (b) Controller crashes, each restoring the latest periodic checkpoint.
fn controller_faults() -> FaultPlan {
    FaultPlan {
        controller_crash_prob: 0.08,
        checkpoint_every: 10,
        loss_prob: 0.15,
        seed: 5,
        ..FaultPlan::none()
    }
}

/// (c) Every degradation of the link at once, behind no other fault.
fn link_faults() -> FaultPlan {
    FaultPlan {
        link: LinkPlan {
            loss_prob: 0.05,
            corrupt_prob: 0.04,
            dup_prob: 0.15,
            reorder_prob: 0.15,
            delay_ticks: 1,
            jitter_ticks: 2,
            capacity: 64,
            seed: 11,
        },
        ..FaultPlan::none()
    }
}

/// (d) Plan (a) with plan-stage corruption.
fn corrupting_node_faults() -> FaultPlan {
    FaultPlan {
        corrupt_prob: 0.1,
        ..node_faults()
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Every field of the report but `sim.bytes` — floats by their bits,
/// counters as words — as one table and its hash. The exhaustive
/// destructuring makes a new field a compile error here.
fn render_without_bytes(report: &FaultReport) -> (String, u64) {
    let FaultReport {
        sim,
        down_node_steps,
        lost_reports,
        partitioned_reports,
        corrupted_reports,
        controller_crashes,
        checkpoints,
    } = report;
    let SimReport {
        steps,
        messages,
        bytes: _,
        realized_frequency,
        staleness_rmse,
        intermediate_rmse,
        quarantined,
        model_fallbacks,
        fallback_fit_failures,
        duplicates,
        mean_age,
        peak_age,
        masked_node_steps,
        link,
        forecast_table_rebuilds,
        forecast_reads_served,
    } = sim;
    let LinkSummary {
        sent,
        delivered,
        lost,
        corrupted,
        duplicated,
        reordered,
        overflowed,
        retransmits,
        abandoned,
        acks_sent,
        acks_delivered,
        acks_lost,
    } = link;
    let words = [
        ("steps", *steps as u64),
        ("messages", *messages),
        ("realized_frequency", realized_frequency.to_bits()),
        ("staleness_rmse", staleness_rmse.to_bits()),
        ("intermediate_rmse", intermediate_rmse.to_bits()),
        ("quarantined", *quarantined),
        ("model_fallbacks", *model_fallbacks),
        ("fallback_fit_failures", *fallback_fit_failures),
        ("duplicates", *duplicates),
        ("mean_age", mean_age.to_bits()),
        ("peak_age", *peak_age as u64),
        ("masked_node_steps", *masked_node_steps),
        ("link.sent", *sent),
        ("link.delivered", *delivered),
        ("link.lost", *lost),
        ("link.corrupted", *corrupted),
        ("link.duplicated", *duplicated),
        ("link.reordered", *reordered),
        ("link.overflowed", *overflowed),
        ("link.retransmits", *retransmits),
        ("link.abandoned", *abandoned),
        ("link.acks_sent", *acks_sent),
        ("link.acks_delivered", *acks_delivered),
        ("link.acks_lost", *acks_lost),
        ("forecast_table_rebuilds", *forecast_table_rebuilds),
        ("forecast_reads_served", *forecast_reads_served),
        ("down_node_steps", *down_node_steps),
        ("lost_reports", *lost_reports),
        ("partitioned_reports", *partitioned_reports),
        ("corrupted_reports", *corrupted_reports),
        ("controller_crashes", *controller_crashes),
        ("checkpoints", *checkpoints),
    ];
    let mut h = Fnv::new();
    let mut table = String::new();
    for (name, w) in words {
        h.word(w);
        table.push_str(&format!("{name}={w:#018x}\n"));
    }
    (table, h.0)
}

/// The hash of every field, `sim.bytes` last.
fn fingerprint(report: &FaultReport) -> (String, u64) {
    let (mut table, mut h) = render_without_bytes(report);
    let mut fnv = Fnv(h);
    fnv.word(report.sim.bytes);
    h = fnv.0;
    table.push_str(&format!("bytes={}\n", report.sim.bytes));
    (table, h)
}

fn run(plan: &FaultPlan, config: &SimConfig) -> FaultReport {
    run_with_faults(config, &fleet_trace(), Resource::Cpu, plan).expect("faulty run")
}

fn assert_pinned(what: &str, report: &FaultReport, golden: u64) {
    let (table, hash) = fingerprint(report);
    assert_eq!(
        hash, golden,
        "{what}: hash {hash:#018x} drifted from {golden:#018x}; fields:\n{table}"
    );
}

const GOLDEN_NODE_FAULTS: u64 = 0xedb1_ab1f_96ea_5ef0;
const GOLDEN_CONTROLLER_FAULTS_AGE_0: u64 = 0xc2ab_9896_1b34_ac90;
const GOLDEN_CONTROLLER_FAULTS_AGE_3: u64 = 0x9a42_35d0_d1d9_ff80;
const GOLDEN_LINK_FAULTS_SHARDS_1: u64 = 0xa2ac_290b_27d0_454b;
const GOLDEN_LINK_FAULTS_SHARDS_4: u64 = 0xe079_098d_b6ff_3318;
/// Plan (d): every field but `sim.bytes`, and the recorded `sim.bytes`.
const GOLDEN_CORRUPTING_WITHOUT_BYTES: u64 = 0x808d_b7d8_c383_f4b9;
const RECORDED_CORRUPTING_BYTES: u64 = 21_600;

#[test]
fn node_faults_are_bitwise_pinned() {
    let report = run(&node_faults(), &sim_config(1, 3));
    assert!(
        report.down_node_steps > 0 && report.lost_reports > 0 && report.partitioned_reports > 0,
        "plan (a) must crash nodes, lose and partition reports: {report:?}"
    );
    assert_pinned("node faults", &report, GOLDEN_NODE_FAULTS);
}

#[test]
fn controller_crashes_are_bitwise_pinned_with_and_without_masking() {
    for (limit, golden) in [
        (0, GOLDEN_CONTROLLER_FAULTS_AGE_0),
        (3, GOLDEN_CONTROLLER_FAULTS_AGE_3),
    ] {
        let config = SimConfig {
            query_probe: 2,
            ..sim_config(1, limit)
        };
        let report = run(&controller_faults(), &config);
        assert!(
            report.controller_crashes > 0 && report.checkpoints > (STEPS / 10) as u64,
            "plan (b) must crash the controller between checkpoints: {report:?}"
        );
        assert_eq!(report.sim.masked_node_steps > 0, limit > 0);
        // A restore rolls the read counter back to the checkpoint's.
        assert!(report.sim.forecast_reads_served > 0);
        assert_pinned(
            &format!("controller faults, staleness_age_limit {limit}"),
            &report,
            golden,
        );
    }
}

#[test]
fn degraded_link_is_bitwise_pinned_at_both_shard_counts() {
    for (shards, golden) in [
        (1, GOLDEN_LINK_FAULTS_SHARDS_1),
        (4, GOLDEN_LINK_FAULTS_SHARDS_4),
    ] {
        let report = run(&link_faults(), &sim_config(shards, 3));
        let link = report.sim.link;
        assert!(
            link.reordered > 0
                && link.duplicated > 0
                && link.lost > 0
                && link.corrupted > 0
                && link.overflowed > 0,
            "plan (c) must reorder, duplicate, lose, corrupt and overflow: {link:?}"
        );
        assert!(
            report.sim.duplicates > 0,
            "duplicate copies must reach the controller: {report:?}"
        );
        assert_pinned(&format!("degraded link, shards {shards}"), &report, golden);
    }
}

#[test]
fn plan_stage_corruption_is_pinned_up_to_the_metered_payload() {
    let report = run(&corrupting_node_faults(), &sim_config(1, 3));
    assert!(report.corrupted_reports > 0);
    assert_eq!(report.sim.quarantined, report.corrupted_reports);
    let (table, hash) = render_without_bytes(&report);
    assert_eq!(
        hash, GOLDEN_CORRUPTING_WITHOUT_BYTES,
        "plan-stage corruption: hash {hash:#018x} drifted from \
         {GOLDEN_CORRUPTING_WITHOUT_BYTES:#018x}; fields:\n{table}bytes={}",
        report.sim.bytes
    );
    let extra = report.sim.bytes.wrapping_sub(RECORDED_CORRUPTING_BYTES);
    assert!(
        report.sim.bytes > RECORDED_CORRUPTING_BYTES
            && extra.is_multiple_of(8)
            && extra <= 8 * report.corrupted_reports,
        "bytes {} against the recorded {RECORDED_CORRUPTING_BYTES}: the rise must be a \
         positive multiple of 8, at most 8 per corrupted report ({})",
        report.sim.bytes,
        report.corrupted_reports
    );
}
