//! Tier-1 goldens for the single compute path of each plane.
//!
//! Every plane of the controller (collection, k-means, model fits, table)
//! runs exactly one implementation; the implementations it replaced live on
//! only as `#[cfg(test)]` oracles inside their crates, which the tier-1
//! command (`cargo test -q`, root package only) does not run. This file pins
//! what that command can see, recorded at the last commit that still had the
//! kernel/mode matrix, under its defaults:
//!
//! * the whole [`SimReport`] of all three drivers on a seeded fleet with
//!   ARIMA models, staggered retrains and staleness masking on — one golden
//!   per clustering shard count, which every thread count and every driver
//!   must reproduce (the bitwise-at-any-thread-count contract), the
//!   supervised threaded driver through a worker panic and a controller
//!   crash on a checkpoint boundary, `run_with_faults` under
//!   `FaultPlan::none()` (these two inputs recorded at the commit before
//!   the drivers shared one slot engine);
//! * the same fleet behind a lossy, duplicating, reordering link with ARQ
//!   and query probes, recorded at that commit too — one golden per
//!   number of sending edges, since each edge has its own link stream;
//! * a `d = 2` and a `d = 8` [`DynamicClusterer::step_flat`] sequence —
//!   labels, centroid bits and inertia bits over 20 steps including cold
//!   re-seeds and an empty-cluster re-seed — recorded under the row scan
//!   (`nearest_by_norms`) that the transposed block scan replaced, so the
//!   block scan has to reproduce it bit for bit.
//!
//! The fleets use only `+ - * /` (exactly rounded everywhere); the penalty
//! weight `V_t` of the transmitters goes through `powf`, whose result enters
//! a strict comparison only. There is no LSTM golden: libm `exp`/`tanh` bits
//! are platform-dependent, so that path is pinned by the differential suite
//! against the scalar oracle in `utilcast-timeseries`. On an intended change
//! of results, re-record from the table the failing assertion prints.

use utilcast::core::cluster::{DynamicClusterer, DynamicClustererConfig};
use utilcast::core::compute::ComputeOptions;
use utilcast::core::pipeline::ModelSpec;
use utilcast::core::transmit::ArqConfig;
use utilcast::datasets::{Resource, Trace};
use utilcast::simnet::faults::{run_with_faults, FaultPlan};
use utilcast::simnet::link::{DeliveryOptions, LinkPlan};
use utilcast::simnet::sim::{SimConfig, SimReport, Simulation};
use utilcast::simnet::threaded::{run_threaded, run_threaded_supervised, SupervisorOptions};
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};

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

fn hex(values: impl Iterator<Item = f64>) -> String {
    let words: Vec<String> = values.map(|v| format!("{:016x}", v.to_bits())).collect();
    format!("[{}]", words.join(" "))
}

fn assert_lines(what: &str, actual: &str, golden: &str) {
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{what}: line {n} drifted; full table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{what}: wrong number of lines; full table:\n{actual}"
    );
}

const NODES: usize = 48;
const STEPS: usize = 72;
const K: usize = 4;

/// Four utilization groups drifting on different periods plus, every sixth
/// node, a wanderer sweeping across them; all values inside `(0, 1)`.
fn fleet_trace() -> Trace {
    let mut noise = 17u64;
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

fn sim_config(threads: usize, shards: usize) -> SimConfig {
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
            threads,
            shards,
            retrain_stagger: true,
            staleness_age_limit: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Every field of the report: floats as hex bits, counters in decimal. The
/// exhaustive destructuring makes a new field a compile error here.
fn render_report(report: &SimReport) -> String {
    let SimReport {
        steps,
        messages,
        bytes,
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
    } = report;
    format!(
        "steps={steps} messages={messages} bytes={bytes} quarantined={quarantined} \
         model_fallbacks={model_fallbacks} fallback_fit_failures={fallback_fit_failures} \
         duplicates={duplicates} peak_age={peak_age} masked_node_steps={masked_node_steps} \
         forecast_table_rebuilds={forecast_table_rebuilds} \
         forecast_reads_served={forecast_reads_served}\n\
         realized_frequency={:016x} staleness_rmse={:016x} intermediate_rmse={:016x} \
         mean_age={:016x}\n\
         link={link:?}\n",
        realized_frequency.to_bits(),
        staleness_rmse.to_bits(),
        intermediate_rmse.to_bits(),
        mean_age.to_bits(),
    )
}

const GOLDEN_REPORT_SHARDS_1: &str = "\
steps=72 messages=1110 bytes=26640 quarantined=0 model_fallbacks=0 fallback_fit_failures=0 duplicates=0 peak_age=5 masked_node_steps=23 forecast_table_rebuilds=0 forecast_reads_served=0\n\
realized_frequency=3fd48e38e38e38e4 staleness_rmse=3fa9c8f9b846e59e intermediate_rmse=3f9c89b843220536 mean_age=3ff2600000000000\n\
link=LinkSummary { sent: 0, delivered: 0, lost: 0, corrupted: 0, duplicated: 0, reordered: 0, overflowed: 0, retransmits: 0, abandoned: 0, acks_sent: 0, acks_delivered: 0, acks_lost: 0 }\n\
";

const GOLDEN_REPORT_SHARDS_4: &str = "\
steps=72 messages=1110 bytes=26640 quarantined=0 model_fallbacks=0 fallback_fit_failures=0 duplicates=0 peak_age=5 masked_node_steps=23 forecast_table_rebuilds=0 forecast_reads_served=0\n\
realized_frequency=3fd48e38e38e38e4 staleness_rmse=3fa9c8f9b846e59e intermediate_rmse=3f9cfc52f3fc97db mean_age=3ff2600000000000\n\
link=LinkSummary { sent: 0, delivered: 0, lost: 0, corrupted: 0, duplicated: 0, reordered: 0, overflowed: 0, retransmits: 0, abandoned: 0, acks_sent: 0, acks_delivered: 0, acks_lost: 0 }\n\
";

#[test]
fn sim_reports_are_bitwise_pinned_at_any_thread_count_on_both_drivers() {
    let trace = fleet_trace();
    for (shards, golden) in [(1, GOLDEN_REPORT_SHARDS_1), (4, GOLDEN_REPORT_SHARDS_4)] {
        for threads in [1, 2, 8] {
            let config = sim_config(threads, shards);
            let reference = Simulation::new(config.clone())
                .expect("valid config")
                .run(&trace, Resource::Cpu)
                .expect("reference run");
            assert!(
                reference.masked_node_steps > 0 && reference.model_fallbacks == 0,
                "the golden fleet must exercise masking on fitted ARIMA models"
            );
            assert_lines(
                &format!("Simulation::run, shards {shards}, threads {threads}"),
                &render_report(&reference),
                golden,
            );
            let threaded = run_threaded(&config, &trace, Resource::Cpu, 3).expect("threaded run");
            assert_lines(
                &format!("run_threaded, shards {shards}, threads {threads}"),
                &render_report(&threaded),
                golden,
            );
            // A worker panic (the shard is respawned and its tick re-run)
            // and a controller crash landing on a checkpoint boundary (the
            // restored snapshot is the live state) change nothing.
            let supervised = run_threaded_supervised(
                &config,
                &trace,
                Resource::Cpu,
                3,
                &SupervisorOptions {
                    worker_panic_at: Some((1, 30)),
                    checkpoint_every: 16,
                    controller_crash_at: Some(32),
                    ..Default::default()
                },
            )
            .expect("supervised run");
            assert_lines(
                &format!("run_threaded_supervised, shards {shards}, threads {threads}"),
                &render_report(&supervised),
                golden,
            );
            let fault_free = run_with_faults(&config, &trace, Resource::Cpu, &FaultPlan::none())
                .expect("fault-free run");
            assert_lines(
                &format!("run_with_faults, shards {shards}, threads {threads}"),
                &render_report(&fault_free.sim),
                golden,
            );
        }
    }
}

/// The golden fleet behind a lossy, duplicating, reordering link with ARQ
/// retransmission over a lossy ack link, serving four forecast reads a tick.
fn degraded_config() -> SimConfig {
    SimConfig {
        delivery: DeliveryOptions {
            link: LinkPlan {
                loss_prob: 0.15,
                dup_prob: 0.1,
                reorder_prob: 0.1,
                jitter_ticks: 1,
                seed: 41,
                ..LinkPlan::perfect()
            },
            ack_link: LinkPlan {
                loss_prob: 0.1,
                seed: 43,
                ..LinkPlan::perfect()
            },
            arq: ArqConfig {
                timeout: 3,
                backoff_cap: 3,
                max_retransmits: 6,
            },
        },
        query_probe: 4,
        ..sim_config(1, 1)
    }
}

/// One sending edge: `Simulation::run` and `run_threaded` at one worker.
const GOLDEN_DEGRADED_ONE_LINK: &str = "\
steps=72 messages=1303 bytes=31272 quarantined=0 model_fallbacks=0 fallback_fit_failures=0 duplicates=14 peak_age=9 masked_node_steps=707 forecast_table_rebuilds=72 forecast_reads_served=288\n\
realized_frequency=3fd4aaaaaaaaaaab staleness_rmse=3fb511cb56d6d9ac intermediate_rmse=3f9da44555d1029e mean_age=4001f55555555554\n\
link=LinkSummary { sent: 92, delivered: 85, lost: 14, corrupted: 0, duplicated: 7, reordered: 12, overflowed: 0, retransmits: 20, abandoned: 0, acks_sent: 85, acks_delivered: 76, acks_lost: 7 }\n\
";

/// Three sending edges: each worker's frames cross their own link stream.
const GOLDEN_DEGRADED_THREE_LINKS: &str = "\
steps=72 messages=1310 bytes=31440 quarantined=0 model_fallbacks=0 fallback_fit_failures=0 duplicates=68 peak_age=10 masked_node_steps=681 forecast_table_rebuilds=72 forecast_reads_served=288\n\
realized_frequency=3fd4af684bda12f7 staleness_rmse=3fb67219f9dd8310 intermediate_rmse=3fa04c7e03297be6 mean_age=4001fda12f684bdb\n\
link=LinkSummary { sent: 277, delivered: 250, lost: 43, corrupted: 0, duplicated: 18, reordered: 30, overflowed: 0, retransmits: 61, abandoned: 0, acks_sent: 250, acks_delivered: 223, acks_lost: 24 }\n\
";

#[test]
fn degraded_sim_reports_are_bitwise_pinned_per_link_stream() {
    let trace = fleet_trace();
    let config = degraded_config();
    let reference = Simulation::new(config.clone())
        .expect("valid config")
        .run(&trace, Resource::Cpu)
        .expect("reference run");
    let link = reference.link;
    assert!(
        link.lost > 0 && link.duplicated > 0 && link.reordered > 0 && link.retransmits > 0,
        "the degraded golden must lose, duplicate, reorder and retransmit: {link:?}"
    );
    assert_eq!(reference.forecast_reads_served, 4 * STEPS as u64);
    assert_lines(
        "Simulation::run, degraded",
        &render_report(&reference),
        GOLDEN_DEGRADED_ONE_LINK,
    );
    for (workers, golden) in [
        (1, GOLDEN_DEGRADED_ONE_LINK),
        (3, GOLDEN_DEGRADED_THREE_LINKS),
    ] {
        let threaded = run_threaded(&config, &trace, Resource::Cpu, workers).expect("threaded run");
        assert_lines(
            &format!("run_threaded, degraded, {workers} workers"),
            &render_report(&threaded),
            golden,
        );
    }
}

const POINTS: usize = 45;
const CLUSTER_STEPS: usize = 20;
/// From this step on the third group sits on top of the first, so the
/// warm-started centroid it leaves behind attracts no point.
const COLLAPSE_AT: usize = 10;

/// Three groups of `dim`-dimensional points (45 = five blocks of eight plus
/// a remainder of five) drifting slowly.
fn cluster_points(t: usize, dim: usize, noise: &mut u64) -> Vec<f64> {
    let mut flat = Vec::with_capacity(POINTS * dim);
    for i in 0..POINTS {
        let group = if t >= COLLAPSE_AT && i % 3 == 2 {
            0
        } else {
            i % 3
        };
        for d in 0..dim {
            let level = 0.1 + 0.4 * group as f64 + 0.01 * d as f64;
            let drift = 0.02 * triangle(t + 3 * group + d, 16);
            flat.push(level + drift + 0.01 * uniform(noise));
        }
    }
    flat
}

fn render_clustering(dim: usize) -> String {
    let mut clusterer = DynamicClusterer::new(DynamicClustererConfig {
        k: 3,
        seed: 5,
        compute: ComputeOptions {
            cold_reseed_every: 7,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut noise = 29u64 + dim as u64;
    let mut out = String::new();
    for t in 0..CLUSTER_STEPS {
        let flat = cluster_points(t, dim, &mut noise);
        let step = clusterer.step_flat(&flat, dim).expect("step");
        if t == COLLAPSE_AT {
            // Two tight groups, three labels in use: the abandoned centroid
            // was re-seeded, because a warm descent never moves a centroid
            // without members any other way.
            for label in 0..3 {
                assert!(
                    step.assignments.contains(&label),
                    "step {t} must re-seed the empty cluster {label}"
                );
            }
        }
        out.push_str(&format!(
            "step {t} labels={:?} centroids={} inertia={:016x}\n",
            step.assignments,
            hex(step.centroids.iter().flatten().copied()),
            step.inertia.to_bits(),
        ));
    }
    out
}

const GOLDEN_CLUSTERING_D2: &str = "\
step 0 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed135ab8cad92b 3fed9c5ac0ecfb5b 3fb460ab8d24546a 3fb8764b9e157165 3fdfb26609629b2f 3fe047eb171ad34e] inertia=3f66026eecfe1c64\n\
step 1 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed4f43cee271b1 3fedb0bc7a2c3b07 3fb5df8ca2803f7b 3fb9c9f56f3e3de6 3fdff927cfed9d3e 3fe0918887e6245f] inertia=3f66dd27a1d90008\n\
step 2 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed6c2c438c7c59 3fed8f5f086f2349 3fb6a9120fcbf0f2 3fbad6a0b6856470 3fe01b8546ba6be5 3fe09c6d4777139e] inertia=3f66d7f757cc88d0\n\
step 3 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed4a8fc01e40d7 3fed7856f1dd0b4f 3fb8a8282458d9c2 3fbcb9d8b163a6da 3fe0574faaa9fbf7 3fe0c637308ab34a] inertia=3f677cca0d28c670\n\
step 4 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed28bdf111d52c 3fed5348b5f0b311 3fb92e7b61b6df75 3fbd4a761b6e5dda 3fe07a2fac50086d 3fe0fb1d611e3702] inertia=3f6628be8bb7ada0\n\
step 5 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fecfcd1b7d52056 3fed1a3f341a7ca3 3fbad50addf8afa0 3fbf2f1674718e84 3fe0aa20c8f04d71 3fe0d1b11057753d] inertia=3f65ef10e79bee68\n\
step 6 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fecd39e42b01353 3fece52ebd7bf297 3fbb9e9baee2444e 3fc0797cf100b249 3fe0861184d0d398 3fe0a63d0b0545d3] inertia=3f66d771a1d4b3c0\n\
step 7 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec9a8c5f3ee6cd 3fecb8cca43137ee 3fbcda1dcd8382ed 3fc0a064b879a9d5 3fe07504c2319b1c 3fe0750626ed8f2b] inertia=3f66dc151a5d49c0\n\
step 8 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec6d486f7114f0 3feca1459334b887 3fbf58f04e063b34 3fc05fe8b1dc356f 3fe02dc30a5d88b3 3fe053c6f4f17903] inertia=3f67ee7faf996000\n\
step 9 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec5b34a032d33d 3fec7bc145cd4f9c 3fbd1022fb95580a 3fbe6f6e462e3cbd 3fdff3c41982a1cc 3fe01b7020c1b159] inertia=3f6a8cd243de9ec8\n\
step 10 labels=[0, 2, 1, 1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 0, 1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 0] centroids=[3fbaeb40173e1840 3fbc70bdfe8f79dd 3fbc350fbc5f7aa2 3fbeb2040ef48692 3fdfad00d8581b66 3fe006ccf4b3c371] inertia=3f60608177ffadd0\n\
step 11 labels=[1, 2, 1, 1, 2, 1, 0, 2, 0, 1, 2, 0, 1, 2, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 1, 2, 1, 1, 2, 0, 0, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 0] centroids=[3fba9e247ab8c27d 3fbd87dbbeadfc01 3fbaa74284c36dfb 3fbb0e41aee80093 3fdf698aee592713 3fdfa8ac62c3a130] inertia=3f60991a53999588\n\
step 12 labels=[1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 1, 0, 2, 1, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 1, 1, 2, 1, 0, 2, 0, 0, 2, 0, 1, 2, 1, 0, 2, 1, 1, 2, 1] centroids=[3fba19bc117e2364 3fbc0c145072dcbf 3fb8378120747ffd 3fb9b6e40565d274 3fdee3197539bdec 3fdf7cbd0b33caea] inertia=3f60a78d68510ec0\n\
step 13 labels=[1, 2, 0, 1, 2, 1, 0, 2, 0, 1, 2, 1, 0, 2, 1, 0, 2, 0, 1, 2, 1, 1, 2, 1, 0, 2, 0, 1, 2, 1, 0, 2, 1, 1, 2, 0, 1, 2, 0, 0, 2, 0, 1, 2, 0] centroids=[3fb9dce6ae2b0d63 3fba43a2b49cbe92 3fb704219cc9c9f0 3fb99d7ed7c9ddc1 3fdecb4e1a4a3d6c 3fdfa7e3372f8f0f] inertia=3f618ab87bfebef0\n\
step 14 labels=[1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1] centroids=[3fdf4b9c462f42bb 3fdfab7ffd93abb7 3fb71ec7aae168b4 3fb87540b4f06103 3fdee879330f3f4c 3fe0196b194e0fda] inertia=3f6300b0f437cff4\n\
step 15 labels=[1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1] centroids=[3fdf0959c9b396a0 3fe02f73caeb6750 3fb534ded22effe0 3fb715ccbe9dcf87 3fdfadc685016574 3fe00c0b342b099a] inertia=3f5f3c18f920d798\n\
step 16 labels=[1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1] centroids=[3fdf7162cdb06157 3fe02a65edf8e398 3fb419d1dc510637 3fb88b5f48f1a6fa 3fe00392000213f0 3fe068bd31298ad6] inertia=3f63b38ccd40e8b0\n\
step 17 labels=[1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1] centroids=[3fe031cb7bb618ca 3fe066d6bc79aa16 3fb655ef0f29a64c 3fb9739c50c80cc1 3fdfacbfc16cb053 3fe0848e15ff7995] inertia=3f62137bf092a938\n\
step 18 labels=[1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1] centroids=[3fdffd4b8d9e6577 3fe080d928e7e0a4 3fb72df80f2ae0e1 3fbaca9c699a1956 3fe044bfd6a9bc29 3fe0b506db847d5e] inertia=3f6330cbe15959a8\n\
step 19 labels=[1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1] centroids=[3fe05220ab5422c2 3fe0b478842d180c 3fb85a04e1d14a5d 3fbc4b7848dbbb23 3fe00dc167f54cef 3fe09c246edf45b1] inertia=3f669acb7ae9d8c8\n\
";

const GOLDEN_CLUSTERING_D8: &str = "\
step 0 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed273050d228dd 3fed9d23b9acd595 3fee1338f83380fa 3fee34a5b858c40f 3fee586d19f3d5cd 3fee92281d52c180 3feeb4be56108ba7 3feee3f96769dedd 3fb4d0fa6ceaff15 3fb8cd2d2772dcfe 3fbc8a8c2218fb15 3fbfb69519abbe3c 3fc1b536dfc9a513 3fc3ec15a603a025 3fc5c4d60cd411f2 3fc7c47449197e9a 3fdfb422581ddf0b 3fe04b1455e6c3b6 3fe0c43327564e4c 3fe143e8b7fe09d2 3fe1dae23b03e86d 3fe24418835b0fcb 3fe27cd334e63c45 3fe27f3b0d7ae7ce] inertia=3f84ac436924e550\n\
step 1 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed346f5ee1f1ce 3fedad3f34dcc9c2 3fede1e8c62dcac5 3fee0fc155ee8609 3fee3153426badb2 3fee69b300ed7891 3fee8f3fc641867f 3feeb7278a0d1a1d 3fb567ac7e17d629 3fb955f1303826d2 3fbddf6d65bf0f9c 3fc0a65a4adeb3c6 3fc2cf5eb055b117 3fc4522a55d83d0b 3fc65c32097faf27 3fc7da0bf2b28353 3fdfdeb151ece54c 3fe06b045152bb62 3fe0f70c6b8670e5 3fe1705cd470f515 3fe1f8caf2b59dad 3fe21775ec94652c 3fe2403fdee02c22 3fe25ddf30c72ebc] inertia=3f8645071b278fc0\n\
step 2 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed79b0c32fc699 3fed91d8108ead06 3fedbcd2a6f90312 3fede3bf3dcbd7ad 3fee1fd8994cf36a 3fee497bde2931a9 3fee5d9927ff57d2 3fee8fd0fee443b7 3fb698202fa20949 3fbaf569be6f2d9e 3fbe4b8fe11b49d3 3fc1363d23e84ecd 3fc316b8e012079e 3fc509b874015a71 3fc6ea8965426c4e 3fc7879e085c10e5 3fe02c9b3858a03f 3fe0b3e81f81bc5c 3fe11c57a9a5ec62 3fe19f75225b81dd 3fe1b4bff433d8e7 3fe1fbd066f88299 3fe20facd7e09d62 3fe25afb8801b7ae] inertia=3f885d6f92ee6390\n\
step 3 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed41669aafcaa9 3fed530df851851f 3fed9321a2acdbe4 3fedb5fae5056931 3fedf3453cbd2970 3fee0de08258473e 3fee451cfee7ea62 3fee5fdf57e9887b 3fb82f3e12669b03 3fbc452b3121fe5f 3fbfa006a23c37db 3fc207dd283b7215 3fc3f6c7d3ffc513 3fc5e8039853f554 3fc6633540d4f230 3fc705d29bf49223 3fe04b1b99eb0f47 3fe0c8b2dfb21417 3fe1475100570a76 3fe18d31cdaf0fc2 3fe18cc36b8f818e 3fe1c4af21474c1e 3fe1e3742ade6600 3fe210d720638bd4] inertia=3f85d517af4e6260\n\
step 4 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fed30cb6cbe473a 3fed48e6f3def574 3fed71f3e9eeba62 3fed917c52d10f54 3fedc030f0193373 3fedf956eeeddbde 3fee0df55255e71d 3feeaaa34889effc 3fb8eee8c53602d5 3fbdbad9e1e15950 3fc038d80b0b7f7b 3fc2ce3c1f698640 3fc442e04c66a0cc 3fc542b8ac528fd0 3fc5879aee083d93 3fc63fd42a6e170b 3fe082673b202aea 3fe0fb76184f0e59 3fe1242ee5d9776a 3fe157706bdccd5f 3fe15ae5bfce8996 3fe1a7fcf9d9c139 3fe1c8d2a193384b 3fe20190a6807037] inertia=3f864a36dac28140\n\
step 5 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fecf6818e2f08c3 3fed13adeb9337f6 3fed53a15b3a6234 3fed64f279689ce3 3fedb13d9f075ae7 3fedcecb7ea96717 3fee3ca9499922ea 3feebe71a8eabbe0 3fbb3d0e3ff8701d 3fbe26788bc2de2d 3fc110163bc44981 3fc372f9ea5b1d23 3fc4069377315727 3fc444fc6dff29e5 3fc54011504cfc86 3fc5c817d96ef68f 3fe0a6d65372bd7c 3fe0cccf782daf36 3fe0e5591d00962b 3fe11a1469c91229 3fe1354901b6bfff 3fe17d6d1db99d5a 3fe18cec0671b20d 3fe1b86428371683] inertia=3f86b694a3274590\n\
step 6 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fecbbeabe22b7d6 3fecf5653376e966 3fed15a7af7ab5ba 3fed44673b8c2502 3fed7b8c242d9062 3feddf598acea077 3fee63ada7d8b4cb 3feed984394d4142 3fbc474f8f9fe0c6 3fc01f3991ded6b7 3fc20f3a79bc9309 3fc2b2c0729e1f6f 3fc2d517c4ba3689 3fc3ad8116b5613d 3fc48a664966840f 3fc516ccec22365f 3fe08209fc890512 3fe08e6a9a1773f7 3fe0c0c3d5bd974e 3fe0db2d89d11cac 3fe135ec35eebb6a 3fe14ceb4688f2bd 3fe179630af50ca2 3fe188224d0779b0] inertia=3f86a9da652a7960\n\
step 7 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec9d14ba8bf55a 3feccd087cde9db9 3fecfdb7f25df19f 3fed26ef64d064a0 3fed9c854afbd7bd 3fee0fbc7d6afc0f 3fee97a3ec5021bf 3fef0caa50d16a8b 3fbe1feabcab22ae 3fc066f4274da7d1 3fc1702c98c35ace 3fc1e753c99d153d 3fc28dd5ce90a239 3fc320471d31d45f 3fc3f13a18fe0526 3fc4b7ae13fdf310 3fe05837a449ac2b 3fe083caf46587b1 3fe090b315669013 3fe0c2bf66355b63 3fe1136dabf18747 3fe1327a404260d2 3fe12de1619dc25c 3fe1cc2b1fecdb6b] inertia=3f857a49bd49a500\n\
step 8 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec81c2d00a753f 3fec90a2aab76ef9 3fecc9399afe22e7 3fed3e5d622a6c35 3fedc108cdb7bbf9 3fee4b24648363d0 3feeb50686632287 3fef37eb76831ebe 3fbe599eb25fc985 3fbfc02ab57fa19b 3fc0a37951b41cdf 3fc1672ecd293795 3fc1fc26189d5f83 3fc2d4976e07b35b 3fc353b73850e067 3fc427f0eb807dc7 3fe018a210da09ac 3fe05c6b03532df9 3fe0700033e1b1cc 3fe096eeac207189 3fe0e007a7a623d6 3fe0ef4adb53ac76 3fe1634d190a4c67 3fe1eca8483cb1ef] inertia=3f8913f146b49910\n\
step 9 labels=[1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0] centroids=[3fec4da7b356e17c 3fec8102b64866e4 3fece5a77497ba41 3fed7049e51ea549 3fede5abdc4313a4 3fee4e903938127a 3feedf4635acd062 3fef594804aff98c 3fbd9081ec51a224 3fbf0d951fbeac65 3fc03ee83c60bad7 3fc0dab09a341765 3fc0e92f422dacf4 3fc1ccf04d4fd224 3fc2a6a7f191159e 3fc35995b73d9e29 3fdfd935b25cf810 3fe02cba308b6074 3fe04ae9861ca9c2 3fe081f4c1d6c985 3fe0a8f96a6c517d 3fe1199d73ea9395 3fe1a24bbe977403 3fe20de662d54af6] inertia=3f88236cda1a9020\n\
step 10 labels=[0, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 1, 0, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0] centroids=[3fbc5f6d773ca253 3fbd591af3a6216c 3fbee326a8cc80f9 3fbfcf08fe38b87f 3fc09c9967aad8bc 3fc175729940af1f 3fc21acba51e719e 3fc3aad300c58709 3fbcc3f13df05643 3fbb2bc3bf717879 3fbdb01ab768cfdb 3fbe062db022baa4 3fc13e21e04e4ae5 3fc1c4e862a3ca07 3fc1aae0745ccf4f 3fc479240eccaa8b 3fdf9a484aa0dc20 3fe00279cf7330c5 3fe0163b5ad04578 3fe040913c7bdd41 3fe0d1fa38486bd4 3fe14350ce8aaec7 3fe1b3bf0a347607 3fe24504b223c0ae] inertia=3f8642037267fe30\n\
step 11 labels=[1, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 1, 2, 0, 0, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 1, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 2, 0] centroids=[3fbafc171b47b203 3fbc93974e382a81 3fbdda4c63cf1d93 3fbfdf3f954bf4c7 3fbf79fe5defb7e7 3fc09ad3b1f143d7 3fc29fd5acecb3af 3fc44ed2be91fe09 3fbb10b2b0a3296d 3fbb6deb6c172da0 3fbe521d70198a8f 3fbd6e4f721ab9e2 3fc04b3069f8a4e6 3fc0fdf7b86d7988 3fc1f6e1c99e1c5b 3fc48ddfe10e610c 3fdf58fda5a86959 3fdf82df4d07f765 3fe00d04452146ec 3fe075b96df1a45e 3fe0ef0527821016 3fe1755eed168769 3fe1f2219913c705 3fe24e08fccf75b0] inertia=3f84d0cc220bb7f0\n\
step 12 labels=[1, 2, 1, 1, 2, 0, 1, 2, 1, 0, 2, 0, 1, 2, 1, 1, 2, 1, 0, 2, 1, 1, 2, 1, 0, 2, 0, 1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 2, 1] centroids=[3fb8e4a993d98030 3fb9b7f4458fffb9 3fbc9babe40bbfca 3fbcd43c92e1a4c3 3fbf120248255463 3fc118e86fd8bbd9 3fc2c1c3b94c8d3a 3fc5085b36a04ee8 3fba4ad3711deb23 3fbaf75ce7e06b33 3fbbeb1c1d41fb0a 3fbeccdd88f5f622 3fbe18e5ed1dc162 3fc13ee3a7faea35 3fc3845600ab65a5 3fc52a82129a867d 3fdeed931b945e6e 3fdf55efbcaf145e 3fe020868a7e85a6 3fe09c70352f9727 3fe122af10702b36 3fe1ad11d9c86ae7 3fe1f86586cd42c2 3fe2937343a0efeb] inertia=3f866ec678e462a8\n\
step 13 labels=[1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 0, 2, 1, 0, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 0, 0, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 1] centroids=[3fb83b83d17c793b 3fb967b8af4a1872 3fbaf32d917cb0e9 3fbdc8bf3a96fc73 3fbfd4bea5243ada 3fc1e0deab07afeb 3fc47404ceb9a2ea 3fc5daed0c7a4bd2 3fb8c456c9340e24 3fb86446875e2a3b 3fbb023903284044 3fbafbff74819d2c 3fbf8e6a776f5828 3fc1d946c987d9cb 3fc33a046803b055 3fc5ef8eea52ef9e 3fdec62d37b9d506 3fdfb44da4d12777 3fe0602dc027a163 3fe0c84ece25cc62 3fe147ec22918a3e 3fe1b6dcd80b6db0 3fe23703ede39af4 3fe2c73576bc32f4] inertia=3f86fca343e20820\n\
step 14 labels=[1, 2, 0, 0, 2, 0, 1, 2, 1, 1, 2, 1, 0, 2, 1, 0, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 0, 1, 2, 1, 0, 2, 0, 0, 2, 0, 1, 2, 0, 0, 2, 1] centroids=[3fb6f204e283184b 3fb80cbb5c843125 3fb9d8cb24de660c 3fbcaebba568b854 3fc1354c51819ee6 3fc31e04b1ba8bb3 3fc486d11ee6cb79 3fc6841d54afdfd7 3fb70bde6ae01d6e 3fb84be4e966cc7e 3fb9fa69afceda55 3fbf21f314272a73 3fc01a6645a650bd 3fc27cc2aa1cd3f8 3fc4d5fad11c10a3 3fc6625c39fc1bd8 3fdeee1ec9f54b7f 3fdffc87c78c31fe 3fe082e471fe1b79 3fe0fc70e7075d4f 3fe172e046c78254 3fe1f03b2c9d27e0 3fe262d55b601b02 3fe2d490ddb3699e] inertia=3f86233b4c8a5a40\n\
step 15 labels=[1, 2, 0, 0, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 0, 1, 2, 1, 1, 2, 0] centroids=[3fb5cc899fabef11 3fb7669e30033348 3fbaddb37b056aba 3fbd51df51575dfc 3fc0f7b8ccf58997 3fc3a3d9eb5dff0f 3fc4ef0642f31b98 3fc736ec6f5cfad9 3fb5b84a105598f5 3fb6cd3e9e274610 3fba8f55f640c5b0 3fbfb91ef58fe84f 3fc0e6f3cc0a65a1 3fc2b32f1a7c0222 3fc4f6bcf3050c84 3fc688ceaf22da4b 3fdf4ccd9243afe6 3fe026971b60b9ba 3fe0a7dc6f07ca34 3fe13b50719ed4f3 3fe197acf65171c4 3fe2172505988266 3fe29802f625c2fb 3fe2b1e776da0737] inertia=3f8539e8f35ac9f0\n\
step 16 labels=[0, 2, 1, 0, 2, 0, 0, 2, 0, 1, 2, 1, 0, 2, 1, 1, 2, 0, 1, 2, 1, 0, 2, 0, 0, 2, 0, 1, 2, 1, 1, 2, 0, 0, 2, 0, 0, 2, 1, 1, 2, 0, 0, 2, 0] centroids=[3fb435e00f8dc240 3fb8ad0896a104e8 3fbc50b99568cf39 3fbfdead2a475cb5 3fc1f6cd407469c4 3fc434c92cae3838 3fc62888d3316b68 3fc80fafbc39ccd0 3fb4f665efad8c9d 3fb8038635bbc598 3fbb48dad52edaf9 3fc0627e72bf1f25 3fc1f20cbfbf1adf 3fc32f436e5a927a 3fc5609f1039d017 3fc746a0d8bcb14c 3fdfb00b836c08c5 3fe04d62e7b802b8 3fe0c976ccd27b3c 3fe135bdfb71147d 3fe1bbcad678a06f 3fe23358a34bebc0 3fe2634cd0be3917 3fe29273d2367c1f] inertia=3f8771ed6b333950\n\
step 17 labels=[0, 2, 1, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0] centroids=[3fb55ba4b714930b 3fb9f8b8742cba81 3fbcd70140d162cd 3fc09908b85e9f7d 3fc25bd89965f6d9 3fc4891e8d7f0624 3fc65d2976bdf53e 3fc8437480b3ea96 3fb796bf45a10023 3fb7d4dfb16075db 3fbb3ad5445e5df3 3fc1e003e8e1a281 3fc32b7a1d784109 3fc356409350dc63 3fc615f7bbe0082b 3fc711295420cf18 3fdffb3537016c7e 3fe07adc68616db5 3fe0fdbe0d55075e 3fe1707a6171cd2f 3fe1e277e9df653b 3fe217b9e9f41753 3fe241aa4bee84da 3fe27708207cf3d1] inertia=3f87da6c811b40f0\n\
step 18 labels=[1, 2, 1, 0, 2, 0, 1, 2, 1, 0, 2, 0, 0, 2, 0, 0, 2, 0, 1, 2, 1, 0, 2, 0, 0, 2, 1, 0, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 0, 0, 2, 0, 0, 2, 0] centroids=[3fb6af616dabf524 3fba89792139dae8 3fbeba23515ef6e8 3fc1216e0be80156 3fc2f7268c0b9aa7 3fc580e641255959 3fc70318a59f17d6 3fc795bd37dcfe30 3fb677e598de30e4 3fba9bea08a4e9e7 3fbf699ad2bb5f9c 3fc197736ae4173d 3fc41d09ce2acb24 3fc4ada594091542 3fc68be90e1d66f4 3fc7890f5748e896 3fe024274d4cf6d9 3fe09b2eb3dd3c92 3fe119174abc5785 3fe1a850b9344f2b 3fe1cb80d8e3c700 3fe1de567e13506d 3fe215eec3e6430d 3fe25251f21eb450] inertia=3f848ce6587ec990\n\
step 19 labels=[1, 2, 1, 1, 2, 1, 0, 2, 0, 0, 2, 1, 0, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 1, 0, 2, 0, 0, 2, 1, 0, 2, 1, 0, 2, 1, 1, 2, 0, 0, 2, 1, 0, 2, 0] centroids=[3fb788a57853b8a8 3fbd4f1a7073e6ca 3fbfe9c85203366f 3fc28bfb62d7c007 3fc3de8b9b7be2dc 3fc5dda4304a86b2 3fc608d74ce1ec26 3fc73248944eac3a 3fb8570c0568f09a 3fbb8127c4dda685 3fc014e0efd4d44c 3fc122807cd3df38 3fc3c514e0965a1b 3fc5611e88ba4d21 3fc675efd8e986f5 3fc72ce5a7ce8d15 3fe0447377797c5d 3fe0bbf3b1046623 3fe156dca176f7fb 3fe17ae9c8d10f03 3fe1881ea2c671e4 3fe1c6b4c82e41e9 3fe1e0674ec3a499 3fe215d48840c850] inertia=3f845c65eb3630f0\n\
";

#[test]
fn vector_clustering_sequences_are_bitwise_pinned() {
    assert_lines("d = 2", &render_clustering(2), GOLDEN_CLUSTERING_D2);
    assert_lines("d = 8", &render_clustering(8), GOLDEN_CLUSTERING_D8);
}
