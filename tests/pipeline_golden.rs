//! Tier-1 golden for the two in-process pipelines and the controller
//! checkpoint, which run one engine (`utilcast_core::central::CentralNode`).
//!
//! Recorded before `Pipeline` and `MultiPipeline` moved onto that engine, so
//! the move has to reproduce, bit for bit and with masking off:
//!
//! * `Pipeline` under the Lyapunov policy, under uniform sampling, and under
//!   uniform sampling at `B = 1`. The last line was printed identically by
//!   the retired `TransmissionMode::Always`: a uniform clock at `B = 1` fires
//!   on every step, the bootstrap step included.
//! * `MultiPipeline` at `d = 1, 2, 3`; at `d = 1` it equals `Pipeline`.
//! * ARIMA with staggered retrains, clustered flat and in four shards.
//! * Every field of every `StepReport` / `MultiStepReport`, the
//!   `forecast(16)` bits, the forecast table's bits (memberships, offsets,
//!   forecasts, interval half-widths), the stored values and
//!   `transmission_frequency`, folded into FNV-1a hashes per run.
//! * The FNV-1a hash of a `simnet::Controller` checkpoint cut mid-run with
//!   staleness masking on: the serialized text, byte for byte — the
//!   packed-JSON text it was written as before the checkpoint container
//!   (kept as a fixture, which the reader now refuses, beside the container
//!   it was converted to, which must decode to the live snapshot), and the
//!   container it is written as now — whose bytes, the base64 decoding of
//!   that text, are pinned by length and hash as well.
//!
//! `staleness_age_limit_reaches_both_pipelines` shows the limit the
//! pipelines accept in `ComputeOptions` is honoured by them too: off, a run
//! is the golden one; at 2, its step reports leave the golden run at the
//! first step where a node is masked.
//!
//! The fleet uses only `+ - * /`; the transmitters' `V_t` goes through
//! `powf`, whose result enters a strict comparison only. On an intended
//! change of results, re-record from the table the failing assertion
//! prints.

use utilcast::core::compute::ComputeOptions;
use utilcast::core::multi::{MultiPipeline, MultiPipelineConfig, MultiStepReport};
use utilcast::core::pipeline::{ModelSpec, Pipeline, PipelineConfig, StepReport, TransmissionMode};
use utilcast::core::stage::StageReport;
use utilcast::core::table::ForecastTable;
use utilcast::linalg::container;
use utilcast::simnet::controller::{Controller, ControllerConfig, ControllerSnapshot};
use utilcast::simnet::transport::ReportFrame;
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};

const NODES: usize = 24;
const K: usize = 3;
const STEPS: usize = 48;
const HORIZON: usize = 16;
const BUDGET: f64 = 0.25;

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

/// `d` resources of three utilization groups drifting on different periods,
/// plus, every eighth node, a wanderer sweeping across them:
/// `trace[t][node * d + resource]`, all inside `(0, 1)`.
fn fleet(d: usize) -> Vec<Vec<f64>> {
    let mut noise = 23u64;
    (0..STEPS)
        .map(|t| {
            let mut row = Vec::with_capacity(NODES * d);
            for i in 0..NODES {
                for r in 0..d {
                    let group = i % K;
                    let level = 0.18
                        + 0.25 * group as f64
                        + 0.04 * r as f64
                        + 0.05 * triangle(t + 3 * group + r, 12 + 4 * group);
                    let own = 0.02 * uniform(&mut noise);
                    row.push(if i % 8 == 7 {
                        0.5 + 0.4 * triangle(t + i, 10 + i % 4) + own
                    } else {
                        level + own
                    });
                }
            }
            row
        })
        .collect()
}

fn arima() -> ModelSpec {
    ModelSpec::Arima {
        order: ArimaOrder::new(2, 0, 1),
        options: ArimaFitOptions::default(),
    }
}

fn pipeline_config(
    transmission: TransmissionMode,
    budget: f64,
    compute: ComputeOptions,
) -> PipelineConfig {
    PipelineConfig {
        num_nodes: NODES,
        k: K,
        budget,
        transmission,
        warmup: 20,
        retrain_every: 12,
        model: arima(),
        seed: 5,
        compute,
        ..Default::default()
    }
}

fn multi_config(d: usize, compute: ComputeOptions) -> MultiPipelineConfig {
    MultiPipelineConfig {
        num_nodes: NODES,
        num_resources: d,
        k: K,
        budget: BUDGET,
        warmup: 20,
        retrain_every: 12,
        model: arima(),
        seed: 5,
        compute,
        ..Default::default()
    }
}

fn stagger(shards: usize) -> ComputeOptions {
    ComputeOptions {
        shards,
        retrain_stagger: true,
        ..Default::default()
    }
}

fn limit(staleness_age_limit: usize) -> ComputeOptions {
    ComputeOptions {
        staleness_age_limit,
        ..Default::default()
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// The fields a `StepReport` and one resource of a `MultiStepReport` share,
/// in the order both hashes take them.
fn hash_stage(h: &mut Fnv, assignments: &[usize], centroids: &[f64], rmse: f64, retrained: bool) {
    assignments.iter().for_each(|&a| h.word(a as u64));
    centroids.iter().for_each(|&c| h.float(c));
    h.float(rmse);
    h.word(u64::from(retrained));
}

fn hash_table(h: &mut Fnv, table: &ForecastTable) {
    h.word(table.generation());
    h.word(table.horizon() as u64);
    h.word(table.num_nodes() as u64);
    h.word(table.k() as u64);
    for node in 0..table.num_nodes() {
        h.word(table.node_membership(node) as u64);
        h.float(table.node_offset(node));
        for step in 0..table.horizon() {
            h.float(table.node_forecast(node, step));
            h.float(table.node_interval(node, step));
        }
    }
}

/// One `Pipeline` run over `trace`: its step reports, and the run's line.
fn run_pipeline(config: PipelineConfig, trace: &[Vec<f64>]) -> (Vec<StepReport>, String) {
    let mut pipeline = Pipeline::new(config).expect("golden pipeline config is valid");
    let mut steps = Fnv::new();
    let mut reports = Vec::with_capacity(trace.len());
    for x in trace {
        let report = pipeline.step(x).expect("step");
        let StepReport {
            transmitted,
            assignments,
            centroids,
            intermediate_rmse,
            retrained,
        } = &report;
        transmitted.iter().for_each(|&s| steps.word(u64::from(s)));
        hash_stage(
            &mut steps,
            assignments,
            centroids,
            *intermediate_rmse,
            *retrained,
        );
        reports.push(report);
    }
    let mut forecast = Fnv::new();
    let fc = pipeline.forecast(HORIZON).expect("forecast");
    fc.iter().flatten().for_each(|&v| forecast.float(v));
    let mut table = Fnv::new();
    hash_table(&mut table, &pipeline.forecast_table().expect("table"));
    let mut stored = Fnv::new();
    pipeline.stored().iter().for_each(|&v| stored.float(v));
    let line = format!(
        "{} frequency={:016x} steps={:016x} stored={:016x} forecast={:016x} table={:016x}",
        summary(reports.iter().map(|r| (&r.transmitted[..], r.retrained))),
        pipeline.transmission_frequency().to_bits(),
        steps.0,
        stored.0,
        forecast.0,
        table.0,
    );
    (reports, line)
}

/// One `MultiPipeline` run over `trace`: its step reports, and the run's
/// line — the fields it shares with `Pipeline` first, hashed the same way,
/// then the stage counters only `StageReport` carries.
fn run_multi(config: MultiPipelineConfig, trace: &[Vec<f64>]) -> (Vec<MultiStepReport>, String) {
    let d = config.num_resources;
    let mut multi = MultiPipeline::new(config).expect("golden multi config is valid");
    let mut steps = Fnv::new();
    let mut counters = Fnv::new();
    let mut reports = Vec::with_capacity(trace.len());
    for x in trace {
        let rows: Vec<Vec<f64>> = x.chunks_exact(d).map(<[f64]>::to_vec).collect();
        let report = multi.step(&rows).expect("step");
        let MultiStepReport {
            transmitted,
            stages,
        } = &report;
        assert_eq!(stages.len(), d);
        transmitted.iter().for_each(|&s| steps.word(u64::from(s)));
        for stage in stages {
            let StageReport {
                assignments,
                centroids,
                intermediate_rmse,
                retrained,
                fallback_fit_failures,
                forecast_table_rebuilds,
                forecast_reads_served,
            } = stage;
            hash_stage(
                &mut steps,
                assignments,
                centroids,
                *intermediate_rmse,
                *retrained,
            );
            counters.word(*fallback_fit_failures);
            counters.word(*forecast_table_rebuilds);
            counters.word(*forecast_reads_served);
        }
        reports.push(report);
    }
    let mut forecast = Fnv::new();
    let fc = multi.forecast(HORIZON).expect("forecast");
    fc.iter()
        .flatten()
        .flatten()
        .for_each(|&v| forecast.float(v));
    let mut table = Fnv::new();
    for r in 0..d {
        hash_table(
            &mut table,
            &multi.stage(r).build_forecast_table().expect("table"),
        );
    }
    let mut stored = Fnv::new();
    (0..NODES)
        .flat_map(|node| multi.stored(node).to_vec())
        .for_each(|v| stored.float(v));
    let line = format!(
        "{} frequency={:016x} steps={:016x} stored={:016x} forecast={:016x} table={:016x} \
         counters={:016x}",
        summary(
            reports
                .iter()
                .map(|r| (&r.transmitted[..], r.stages.iter().any(|s| s.retrained)))
        ),
        multi.transmission_frequency().to_bits(),
        steps.0,
        stored.0,
        forecast.0,
        table.0,
        counters.0,
    );
    (reports, line)
}

/// The readable head of a run's line: the steps that retrained and the
/// reports sent.
fn summary<'a>(steps: impl Iterator<Item = (&'a [bool], bool)>) -> String {
    let mut retrained = Vec::new();
    let mut sent = 0;
    for (t, (transmitted, retrain)) in steps.enumerate() {
        sent += transmitted.iter().filter(|&&s| s).count();
        if retrain {
            retrained.push(t);
        }
    }
    format!("sent={sent} retrained={retrained:?}")
}

/// The packed-JSON checkpoint [`checkpoint_lines`]' controller was written
/// as before the checkpoint container; its line still pins those bytes.
const PACKED_CHECKPOINT: &str = include_str!("fixtures/checkpoint_pipeline_golden.json");
/// [`PACKED_CHECKPOINT`] converted once to its container.
const CONVERTED_CHECKPOINT: &[u8] = include_bytes!("fixtures/checkpoint_pipeline_golden.bin");

/// A controller cut mid-run, between its first fits and the staggered
/// refits, with nodes silent for four ticks at a time — past the staleness
/// limit of 2, so the checkpoint carries masked steps and ages.
fn checkpoint_controller() -> Controller {
    let trace = fleet(1);
    let mut controller = Controller::new(ControllerConfig {
        num_nodes: NODES,
        k: K,
        warmup: 20,
        retrain_every: 12,
        model: arima(),
        seed: 5,
        compute: ComputeOptions {
            retrain_stagger: true,
            staleness_age_limit: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("golden controller config is valid");
    let mut frame = ReportFrame::new(1);
    for (t, x) in trace.iter().enumerate().take(30) {
        frame.reset(t);
        for (node, &v) in x.iter().enumerate() {
            if t == 0 || (t / 4 + node) % 3 != 0 {
                frame.push_scalar(node, v);
            }
        }
        controller
            .tick_frames(std::slice::from_ref(&frame))
            .expect("tick");
        controller.serve_query_probes(3).expect("probes");
    }
    controller
}

/// [`checkpoint_controller`]'s checkpoint: the first line pins its
/// packed-JSON form (a fixture, whose converted container must decode to
/// the live controller's snapshot), the second the container's JSON text.
fn checkpoint_lines() -> [String; 2] {
    let controller = checkpoint_controller();
    assert!(controller.masked_node_steps() > 0, "masking must be on");
    let converted =
        ControllerSnapshot::from_bytes(CONVERTED_CHECKPOINT).expect("the fixture decodes");
    assert_eq!(
        converted,
        controller.snapshot(),
        "fixture and live state differ"
    );
    let container = serde_json::to_string(&controller.snapshot()).expect("checkpoint");
    [PACKED_CHECKPOINT, &container].map(|text| {
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        format!(
            "bytes={} masked_node_steps={} peak_age={} fnv={:016x}",
            text.len(),
            controller.masked_node_steps(),
            controller.age().peak(),
            h.0
        )
    })
}

fn render() -> String {
    let one = fleet(1);
    let mut out = String::new();
    let pipelines = [
        (
            "pipeline adaptive",
            pipeline_config(TransmissionMode::Adaptive, BUDGET, limit(0)),
        ),
        (
            "pipeline uniform",
            pipeline_config(TransmissionMode::Uniform, BUDGET, limit(0)),
        ),
        (
            "pipeline uniform B=1",
            pipeline_config(TransmissionMode::Uniform, 1.0, limit(0)),
        ),
        (
            "pipeline arima stagger shards=1",
            pipeline_config(TransmissionMode::Adaptive, BUDGET, stagger(1)),
        ),
        (
            "pipeline arima stagger shards=4",
            pipeline_config(TransmissionMode::Adaptive, BUDGET, stagger(4)),
        ),
    ];
    for (name, config) in pipelines {
        out.push_str(&format!("{name}: {}\n", run_pipeline(config, &one).1));
    }
    for d in 1..=3 {
        let line = run_multi(multi_config(d, limit(0)), &fleet(d)).1;
        out.push_str(&format!("multi d={d}: {line}\n"));
    }
    let [packed, container] = checkpoint_lines();
    out.push_str(&format!("checkpoint: {packed}\n"));
    out.push_str(&format!("checkpoint container: {container}\n"));
    out
}

const GOLDEN: &str = "\
pipeline adaptive: sent=316 retrained=[19, 31, 43] frequency=3fd18e38e38e38e4 steps=2257b6382cc5ed0e stored=c0d1a3b0db73198a forecast=0db6d6193fea7031 table=420ecd3d46e12856\n\
pipeline uniform: sent=312 retrained=[19, 31, 43] frequency=3fd1555555555555 steps=32a2aece9a16d519 stored=81af148ff0bea01b forecast=160c15ba1ca5a08c table=7f1a7403d28abba4\n\
pipeline uniform B=1: sent=1152 retrained=[19, 31, 43] frequency=3ff0000000000000 steps=c2146c8c382cc623 stored=81af148ff0bea01b forecast=a45316d123b38309 table=b61be6b47699c8b9\n\
pipeline arima stagger shards=1: sent=316 retrained=[19, 23, 27, 31, 35, 39, 43, 47] frequency=3fd18e38e38e38e4 steps=9224a201b457572b stored=c0d1a3b0db73198a forecast=bc0ef1bb25e85b43 table=e6d87104a5cf1e44\n\
pipeline arima stagger shards=4: sent=316 retrained=[19, 23, 27, 31, 35, 39, 43, 47] frequency=3fd18e38e38e38e4 steps=a2c72ca2f927c33a stored=c0d1a3b0db73198a forecast=82fecae4e3a06739 table=2c5f19fb1074d320\n\
multi d=1: sent=316 retrained=[19, 31, 43] frequency=3fd18e38e38e38e4 steps=2257b6382cc5ed0e stored=c0d1a3b0db73198a forecast=0db6d6193fea7031 table=420ecd3d46e12856 counters=36fe4d3f1c233d25\n\
multi d=2: sent=316 retrained=[19, 31, 43] frequency=3fd18e38e38e38e4 steps=349c02aac3e1dae6 stored=56c80f008685fabc forecast=82ff134ebc5b7a5c table=03527e774831d199 counters=d3f7ec18a0f85725\n\
multi d=3: sent=317 retrained=[19, 31, 43] frequency=3fd19c71c71c71c7 steps=b1cfe91d67a36352 stored=b410336fa95c9420 forecast=c0c36646d56b0f78 table=087bb567211f502c counters=b0f1ebd9faa17125\n\
checkpoint: bytes=6940 masked_node_steps=104 peak_age=4 fnv=4c5c149f9444b654\n\
checkpoint container: bytes=5614 masked_node_steps=104 peak_age=4 fnv=a0982152afbbc5c3\n\
";

/// The length and FNV-1a hash of [`checkpoint_controller`]'s container
/// bytes, the base64 decoding of the text the `checkpoint container` line
/// pins (recorded from that text before the container API moved to bytes).
const CONTAINER_BYTES: &str = "bytes=4207 fnv=3bb54b6c53977946";

fn golden_line(name: &str) -> &'static str {
    GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
        .unwrap_or_else(|| panic!("no golden line for {name}"))
}

#[test]
fn pipelines_and_checkpoint_are_bitwise_pinned() {
    let actual = render();
    for (n, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {n} drifted; full table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "wrong number of lines; full table:\n{actual}"
    );
    // At d = 1 the multi-resource pipeline is the scalar one.
    let scalar = golden_line("pipeline adaptive");
    assert!(
        golden_line("multi d=1").starts_with(&format!("{scalar} counters=")),
        "d = 1 must equal Pipeline"
    );
    // At B = 1 every node transmits on every step.
    assert!(golden_line("pipeline uniform B=1").starts_with(&format!("sent={} ", NODES * STEPS)));
}

/// The bytes `ControllerSnapshot::to_bytes` writes for the golden
/// checkpoint — what the simulation drivers keep for a crash — are the
/// base64 decoding of the pinned container text and the packed-JSON
/// fixture's conversion, and decode back to the live snapshot; the
/// packed-JSON text itself is refused as the pre-container form.
#[test]
fn checkpoint_bytes_are_the_pinned_container_text_decoded() {
    let controller = checkpoint_controller();
    let snapshot = controller.snapshot();
    let bytes = snapshot.to_bytes();
    let text = serde_json::to_string(&snapshot).expect("checkpoint");
    let symbols = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .expect("the container is one JSON string");
    assert_eq!(container::from_base64(symbols).expect("base64"), bytes);
    assert_eq!(CONVERTED_CHECKPOINT, bytes, "the fixture converted to them");
    let refused = serde_json::from_str::<ControllerSnapshot>(PACKED_CHECKPOINT)
        .expect_err("the JSON map is refused");
    assert!(refused.to_string().contains("pre-container"), "{refused}");
    let back = ControllerSnapshot::from_bytes(&bytes).expect("the bytes decode");
    assert_eq!(back, snapshot);
    let mut h = Fnv::new();
    h.bytes(&bytes);
    assert_eq!(
        format!("bytes={} fnv={:016x}", bytes.len(), h.0),
        CONTAINER_BYTES
    );
}

/// The first step at which the staleness limit masks a node: some node's
/// newest transmission is more than `limit` steps old while another's is
/// not (with every node stale the store passes through unmasked).
fn first_masked_step<'a>(
    transmitted: impl Iterator<Item = &'a [bool]>,
    limit: usize,
) -> Option<usize> {
    let mut last_sent = [0usize; NODES];
    for (t, sent) in transmitted.enumerate() {
        for (node, &s) in sent.iter().enumerate() {
            if s {
                last_sent[node] = t;
            }
        }
        let stale = last_sent.iter().filter(|&&at| t - at > limit).count();
        if stale > 0 && stale < NODES {
            return Some(t);
        }
    }
    None
}

#[test]
fn staleness_age_limit_reaches_both_pipelines() {
    let one = fleet(1);
    let adaptive = |compute| pipeline_config(TransmissionMode::Adaptive, BUDGET, compute);
    let (plain, line) = run_pipeline(adaptive(limit(0)), &one);
    assert_eq!(line, golden_line("pipeline adaptive"));
    let (masked, _) = run_pipeline(adaptive(limit(2)), &one);
    let first = first_masked_step(plain.iter().map(|r| &r.transmitted[..]), 2)
        .expect("the adaptive run must leave some node stale past the limit");
    assert_eq!(plain[..first], masked[..first], "no node is masked before");
    assert_ne!(
        plain[first].intermediate_rmse.to_bits(),
        masked[first].intermediate_rmse.to_bits(),
        "Pipeline ignored the limit at step {first}"
    );

    let two = fleet(2);
    let (plain, line) = run_multi(multi_config(2, limit(0)), &two);
    assert_eq!(line, golden_line("multi d=2"));
    let (masked, _) = run_multi(multi_config(2, limit(2)), &two);
    let first = first_masked_step(plain.iter().map(|r| &r.transmitted[..]), 2)
        .expect("the d = 2 run must leave some node stale past the limit");
    assert_eq!(plain[..first], masked[..first], "no node is masked before");
    for (r, (a, b)) in plain[first]
        .stages
        .iter()
        .zip(&masked[first].stages)
        .enumerate()
    {
        assert_ne!(
            a.intermediate_rmse.to_bits(),
            b.intermediate_rmse.to_bits(),
            "MultiPipeline ignored the limit for resource {r} at step {first}"
        );
    }

    // Uniform sampling runs one clock for the whole fleet, so every node is
    // equally old and there is never a fresh node to impute from: the limit
    // cannot change a uniform run.
    let uniform = |compute| pipeline_config(TransmissionMode::Uniform, BUDGET, compute);
    let (plain, line) = run_pipeline(uniform(limit(0)), &one);
    assert_eq!(line, golden_line("pipeline uniform"));
    assert_eq!(run_pipeline(uniform(limit(2)), &one).0, plain);
}
