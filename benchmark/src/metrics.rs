//! The metric catalogue: names, units, directions and regression bounds.
//! `../BENCHMARK.json` carries the same table for the driver; a test keeps
//! the two identical. What each per-layer metric should move is in
//! `README.md`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

/// What a user of the system sees; the same set on every workload.
///
/// Each bound is 3 × the widest inter-quartile spread that metric showed
/// on any workload in the sets of ten seeds taken on the 2-core reference
/// host, rounded up to the next 0.05 and capped at the contract's 0.25
/// (README, "How the bounds were derived"): every timing is at the cap.
pub const END_TO_END: [Spec; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("node_steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("tick_p50_ms", "ms", Better::Lower, 0.25),
    e2e("tick_p90_ms", "ms", Better::Lower, 0.25),
    e2e("refresh_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_reads_per_s", "1/s", Better::Higher, 0.25),
    e2e("checkpoint_p50_ms", "ms", Better::Lower, 0.25),
    e2e("restore_p50_ms", "ms", Better::Lower, 0.25),
    e2e("wire_bytes_per_node_step", "B", Better::Lower, 0.05),
    e2e("staleness_rmse", "util", Better::Lower, 0.1),
    e2e("forecast_rmse_h1", "util", Better::Lower, 0.25),
    e2e("forecast_rmse_h8", "util", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

/// Single layers, from the traced pass. Every one reads "lower is
/// better": they are costs, waste ratios, ages and error.
pub const PER_LAYER: [Spec; 49] = [
    layer("transmit.decide_ns_per_node", "ns"),
    layer("transmit.sent_ratio", "ratio"),
    layer("transmit.share", "ratio"),
    layer("transport.frame_build_ns_per_entry", "ns"),
    layer("transport.bytes_per_entry", "B"),
    layer("transport.query_codec_ns", "ns"),
    layer("transport.share", "ratio"),
    layer("link.submit_collect_us", "us"),
    layer("link.ack_us", "us"),
    layer("link.retransmits_per_frame", "ratio"),
    layer("link.lost_ratio", "ratio"),
    layer("link.duplicate_frame_ratio", "ratio"),
    layer("link.abandoned", "count"),
    layer("link.share", "ratio"),
    layer("controller.tick_us_p50", "us"),
    layer("controller.admit_us_p50", "us"),
    layer("controller.quarantined_ratio", "ratio"),
    layer("controller.duplicate_ratio", "ratio"),
    layer("controller.masked_ratio", "ratio"),
    layer("controller.mean_age", "ticks"),
    layer("controller.peak_age", "ticks"),
    layer("controller.share", "ratio"),
    layer("cluster.step_us_p50", "us"),
    layer("cluster.step_us_p90", "us"),
    layer("cluster.step_ns_per_node", "ns"),
    layer("cluster.intermediate_rmse", "util"),
    layer("cluster.share", "ratio"),
    layer("forecast.update_us_p50", "us"),
    layer("forecast.retrain_tick_us_p50", "us"),
    layer("forecast.fit_us_per_model", "us"),
    layer("forecast.retrain_tick_ratio", "ratio"),
    layer("forecast.model_fallbacks", "count"),
    layer("forecast.fallback_fit_failures", "count"),
    layer("forecast.share", "ratio"),
    layer("table.build_us_p50", "us"),
    layer("table.build_ns_per_node", "ns"),
    layer("table.rebuilds_per_refresh", "ratio"),
    layer("table.load_ns", "ns"),
    layer("table.read_ns", "ns"),
    layer("table.share", "ratio"),
    layer("checkpoint.snapshot_us", "us"),
    layer("checkpoint.serialize_us", "us"),
    layer("checkpoint.deserialize_us", "us"),
    layer("checkpoint.restore_us", "us"),
    layer("checkpoint.bytes_per_node", "B"),
    layer("checkpoint.share", "ratio"),
    layer("host.calib_ms", "ms"),
    layer("host.pass_spread", "ratio"),
    layer("trace.overhead_ratio", "ratio"),
];

/// `run_seconds` in `BENCHMARK.json`: what the three passes of a run
/// measure, rounded. The tick counts, not the clock, set how long a run
/// takes, so this is the only `--seconds` the benchmark accepts.
pub const RUN_SECONDS: u64 = 25;
