//! Output helpers: aligned stdout tables plus JSON files under `results/`.

use std::fs;
use std::path::Path;

use serde::Serialize;
use utilcast_clustering::parallel::resolve_threads;
use utilcast_core::compute::ComputeOptions;

/// The compute configuration a benchmark actually ran under, recorded
/// uniformly in every `BENCH_*.json` so speedups can be read in context
/// (what "auto" threads resolved to, how many shards). Construct with
/// [`ResolvedConfig::capture`].
#[derive(Debug, Clone, Serialize)]
pub struct ResolvedConfig {
    /// What `threads: 0` ("auto") resolves to on the benchmarking machine.
    pub resolved_threads: usize,
    /// Shard count of the benchmarked configuration.
    pub shards: usize,
}

impl ResolvedConfig {
    /// Snapshots the resolved view of `compute` (thread auto-detection
    /// included).
    pub fn capture(compute: &ComputeOptions) -> Self {
        ResolvedConfig {
            resolved_threads: resolve_threads(compute.threads),
            shards: compute.shards,
        }
    }
}

/// Prints a header line for an experiment.
pub fn banner(experiment: &str, description: &str) {
    println!("== {experiment} — {description} ==");
}

/// Prints one aligned table: a header row then value rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float for table cells.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Writes an experiment's machine-readable result to
/// `results/<experiment>.json` (directory created on demand). Failures are
/// reported but not fatal — stdout remains the primary artifact.
pub fn write_json<T: Serialize>(experiment: &str, value: &T) {
    write_json_in(Path::new("results"), experiment, value);
}

/// [`write_json`] into `dir` instead of `results/`.
pub fn write_json_in<T: Serialize>(dir: &Path, experiment: &str, value: &T) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(1.0), "1.0000");
    }

    #[test]
    fn table_prints_without_panic() {
        table(
            &["dataset", "rmse"],
            &[
                vec!["Alibaba".into(), f(0.069)],
                vec!["Google".into(), f(0.055)],
            ],
        );
    }
}
