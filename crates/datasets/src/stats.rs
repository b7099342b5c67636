//! Trace characterization: the summary statistics used to compare a
//! synthetic trace against the paper's description of its real datasets
//! (and to sanity-check your own traces before feeding them to the
//! pipeline).

use serde::{Deserialize, Serialize};
use utilcast_linalg::stats::{mean, pearson, quantile, std_dev};

use crate::{Resource, Trace, TraceError};

/// Summary statistics of one resource of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Resource described.
    pub resource: Resource,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of steps.
    pub num_steps: usize,
    /// Pooled mean utilization.
    pub mean: f64,
    /// Pooled standard deviation (the paper's forecasting error bound).
    pub std_dev: f64,
    /// Median of the per-node temporal standard deviations (how much a
    /// typical machine fluctuates).
    pub median_node_volatility: f64,
    /// Median absolute one-step change, pooled (burstiness proxy).
    pub median_abs_step: f64,
    /// Quantiles of the pairwise correlation distribution `(q25, q50, q75)`
    /// — the paper's Fig. 1 summary.
    pub correlation_quartiles: (f64, f64, f64),
    /// Fraction of node pairs with `|corr| < 0.5` (the paper's "weak
    /// long-term spatial correlation" criterion).
    pub weak_correlation_fraction: f64,
}

/// Maximum number of nodes used for the pairwise-correlation statistics;
/// pairs grow quadratically, so large traces are subsampled (evenly).
const CORR_NODE_CAP: usize = 60;

/// Computes the summary for one resource.
///
/// # Errors
///
/// Returns [`TraceError::UnknownResource`] if the trace lacks the resource.
pub fn summarize(trace: &Trace, resource: Resource) -> Result<TraceSummary, TraceError> {
    let n = trace.num_nodes();
    let steps = trace.num_steps();
    let series: Vec<Vec<f64>> = (0..n)
        .map(|i| trace.series(resource, i))
        .collect::<Result<_, _>>()?;

    let pooled: Vec<f64> = series.iter().flatten().copied().collect();
    let node_volatility: Vec<f64> = series.iter().map(|s| std_dev(s)).collect();
    let abs_steps: Vec<f64> = series
        .iter()
        .flat_map(|s| s.iter().zip(s.iter().skip(1)).map(|(a, b)| (b - a).abs()))
        .collect();

    // Pairwise correlations over (a subsample of) nodes.
    let stride = n.div_ceil(CORR_NODE_CAP).max(1);
    let sampled: Vec<&Vec<f64>> = series.iter().step_by(stride).collect();
    let mut corrs = Vec::new();
    for (a, first) in sampled.iter().enumerate() {
        for second in sampled.iter().skip(a + 1) {
            corrs.push(pearson(first, second));
        }
    }
    let weak = if corrs.is_empty() {
        0.0
    } else {
        corrs.iter().filter(|c| c.abs() < 0.5).count() as f64 / corrs.len() as f64
    };
    let quartiles = if corrs.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            quantile(&corrs, 0.25),
            quantile(&corrs, 0.5),
            quantile(&corrs, 0.75),
        )
    };

    Ok(TraceSummary {
        resource,
        num_nodes: n,
        num_steps: steps,
        mean: mean(&pooled),
        std_dev: std_dev(&pooled),
        median_node_volatility: if node_volatility.is_empty() {
            0.0
        } else {
            quantile(&node_volatility, 0.5)
        },
        median_abs_step: if abs_steps.is_empty() {
            0.0
        } else {
            quantile(&abs_steps, 0.5)
        },
        correlation_quartiles: quartiles,
        weak_correlation_fraction: weak,
    })
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} over {} nodes x {} steps:",
            self.resource, self.num_nodes, self.num_steps
        )?;
        writeln!(f, "  mean {:.3}, std {:.3}", self.mean, self.std_dev)?;
        writeln!(
            f,
            "  median node volatility {:.4}, median |step| {:.4}",
            self.median_node_volatility, self.median_abs_step
        )?;
        write!(
            f,
            "  pairwise corr quartiles ({:.2}, {:.2}, {:.2}), weak (|r|<0.5): {:.0}%",
            self.correlation_quartiles.0,
            self.correlation_quartiles.1,
            self.correlation_quartiles.2,
            100.0 * self.weak_correlation_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::sensor::SensorFieldConfig;

    #[test]
    fn cluster_trace_summary_shows_weak_correlation() {
        let trace = presets::google_like().nodes(25).steps(800).generate();
        let s = summarize(&trace, Resource::Cpu).unwrap();
        assert_eq!(s.num_nodes, 25);
        assert_eq!(s.num_steps, 800);
        assert!((0.0..=1.0).contains(&s.mean));
        assert!(s.std_dev > 0.0);
        assert!(
            s.weak_correlation_fraction > 0.5,
            "weak fraction {}",
            s.weak_correlation_fraction
        );
    }

    #[test]
    fn sensor_trace_summary_shows_strong_correlation() {
        let trace = SensorFieldConfig::default().nodes(20).steps(800).generate();
        let s = summarize(&trace, Resource::Temperature).unwrap();
        assert!(
            s.weak_correlation_fraction < 0.3,
            "weak fraction {}",
            s.weak_correlation_fraction
        );
        assert!(
            s.correlation_quartiles.1 > 0.5,
            "median corr {:?}",
            s.correlation_quartiles
        );
    }

    #[test]
    fn quartiles_are_ordered() {
        let trace = presets::alibaba_like().nodes(15).steps(400).generate();
        let s = summarize(&trace, Resource::Memory).unwrap();
        let (q1, q2, q3) = s.correlation_quartiles;
        assert!(q1 <= q2 && q2 <= q3);
    }

    #[test]
    fn unknown_resource_errors() {
        let trace = presets::alibaba_like().nodes(5).steps(50).generate();
        assert!(matches!(
            summarize(&trace, Resource::Humidity),
            Err(TraceError::UnknownResource { .. })
        ));
    }

    #[test]
    fn display_is_informative() {
        let trace = presets::alibaba_like().nodes(8).steps(100).generate();
        let s = summarize(&trace, Resource::Cpu).unwrap();
        let text = s.to_string();
        assert!(text.contains("cpu over 8 nodes"));
        assert!(text.contains("weak (|r|<0.5)"));
    }
}
