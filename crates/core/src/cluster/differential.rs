//! Differential tests: the in-place clusterer step (warm scalar refit from
//! the previous labels, laned Eq. 10 counts, the identity certificate,
//! recycled history and warm centroids) against [`super::oracle`]'s step,
//! bit for bit, at threads {1, 2, 8} × shards {1, 4}: over tick streams
//! through cold re-seeds and restores, and from checkpoints that start it
//! on the edge cases — duplicate, non-finite and memberless warm
//! centroids, a point on a midpoint, a non-identity matching, and a
//! similarity matrix the certificate must decline.

use proptest::prelude::*;
use utilcast_clustering::hungarian::{brute_force_max_matching, max_weight_matching};

use super::*;

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 2] = [1, 4];
/// Above the k-means fan-out threshold, so threads > 1 split the scans.
const N: usize = 300;
const K: usize = 4;

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Tick `t` of a stream: `K` drifting bands; a third of the nodes report a
/// fresh value (one in a hundred in another band), the rest repeat theirs.
fn tick(t: usize, state: &mut u64, prev: &[f64]) -> Vec<f64> {
    (0..N)
        .map(|i| {
            let fresh = next(state).is_multiple_of(3) || prev.is_empty();
            let band = if next(state).is_multiple_of(100) {
                i + 1
            } else {
                i
            } % K;
            let level = 0.15 + 0.2 * band as f64 + 0.003 * t as f64;
            if fresh {
                level + 0.03 * unit(state)
            } else {
                prev[i]
            }
        })
        .collect()
}

fn config(
    threads: usize,
    shards: usize,
    m: usize,
    similarity: SimilarityMeasure,
) -> DynamicClustererConfig {
    DynamicClustererConfig {
        k: K,
        m,
        similarity,
        seed: 9,
        compute: ComputeOptions {
            threads,
            shards,
            cold_reseed_every: 7,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// One step of both, compared by bits; the checkpointed state too.
fn step_both(lean: &mut DynamicClusterer, old: &mut DynamicClusterer, x: &[f64], context: &str) {
    let want = oracle::step_flat(old, x, 1).unwrap();
    let got = lean.step_flat(x, 1).unwrap();
    assert_eq!(got.assignments, want.assignments, "{context}: labels");
    assert!(same_bits(got.inertia, want.inertia), "{context}: inertia");
    let bits = |s: &ClusterStep| -> Vec<u64> {
        s.centroids.iter().flatten().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&got), bits(&want), "{context}: centroids");
    assert_eq!(lean.snapshot(), old.snapshot(), "{context}: state");
}

#[test]
fn lean_step_matches_the_oracle_over_tick_streams() {
    for threads in THREADS {
        for shards in SHARDS {
            for (m, similarity) in [
                (1, SimilarityMeasure::Intersection),
                (2, SimilarityMeasure::Intersection),
                (1, SimilarityMeasure::Jaccard),
            ] {
                let cfg = config(threads, shards, m, similarity);
                let mut lean = DynamicClusterer::new(cfg.clone());
                let mut old = DynamicClusterer::new(cfg);
                let mut state = 17u64;
                let mut x = Vec::new();
                for t in 0..24 {
                    x = tick(t, &mut state, &x);
                    if t == 12 {
                        // The first steps after a restore: no label guesses,
                        // history rows validated once.
                        lean = DynamicClusterer::restore(lean.snapshot());
                        old = DynamicClusterer::restore(old.snapshot());
                    }
                    let context = format!(
                        "threads {threads}, shards {shards}, m {m}, {similarity:?}, tick {t}"
                    );
                    step_both(&mut lean, &mut old, &x, &context);
                }
            }
        }
    }
}

/// A checkpoint after one step on `x`, with the given warm centroids and
/// history row.
fn start(cfg: &DynamicClustererConfig, warm: &[f64], history: Vec<usize>) -> ClustererSnapshot {
    ClustererSnapshot {
        config: cfg.clone(),
        history: vec![history],
        warm_centroids: Some(warm.iter().map(|&c| vec![c]).collect()),
        shard_warm: Vec::new(),
        t: 1,
    }
}

/// An edge-case start: its name, the warm centroids and history row of the
/// checkpoint it restores, and the first step's points.
type EdgeStart<'a> = (&'a str, Vec<f64>, Vec<usize>, &'a [f64]);

#[test]
fn edge_case_starts_match_the_oracle() {
    let mut state = 23u64;
    let x = tick(1, &mut state, &[]);
    // The band each node sits in, as the natural labels.
    let bands: Vec<usize> = x
        .iter()
        .map(|&v| (((v - 0.15) / 0.2).round() as usize).min(K - 1))
        .collect();
    let levels = [0.15, 0.35, 0.55, 0.75];
    let mid = 0.5 * (levels[0] + levels[1]);
    let mut on_midpoint = x.clone();
    on_midpoint[3] = mid;
    on_midpoint[200] = mid;
    // Half of band 0 came from band 1: row 0 of Eq. 10 ties.
    let tied: Vec<usize> = bands
        .iter()
        .enumerate()
        .map(|(i, &b)| if b == 0 && i.is_multiple_of(2) { 1 } else { b })
        .collect();
    let cases: Vec<EdgeStart<'_>> = vec![
        (
            "duplicate warm centroids",
            vec![0.15, 0.35, 0.35, 0.75],
            bands.clone(),
            &x,
        ),
        (
            "point on a midpoint",
            levels.to_vec(),
            bands.clone(),
            &on_midpoint,
        ),
        (
            "non-finite warm centroid",
            vec![0.15, f64::INFINITY, 0.55, 0.75],
            bands.clone(),
            &x,
        ),
        (
            "memberless warm centroid",
            vec![0.15, 0.35, 0.55, 50.0],
            bands.clone(),
            &x,
        ),
        (
            "non-identity matching",
            levels.to_vec(),
            bands.iter().map(|&b| (b + 1) % K).collect(),
            &x,
        ),
        ("near-diagonal similarity", levels.to_vec(), tied, &x),
    ];
    for threads in THREADS {
        for shards in SHARDS {
            let cfg = config(threads, shards, 1, SimilarityMeasure::Intersection);
            for (name, warm, history, first) in &cases {
                let snap = start(&cfg, warm, history.clone());
                let mut lean = DynamicClusterer::restore(snap.clone());
                let mut old = DynamicClusterer::restore(snap);
                let mut x = first.to_vec();
                let mut state = 5u64;
                for t in 0..5 {
                    let context = format!("{name}: threads {threads}, shards {shards}, tick {t}");
                    step_both(&mut lean, &mut old, &x, &context);
                    x = tick(t + 2, &mut state, &x);
                }
            }
        }
    }
}

/// The near-diagonal start really reaches the solver: the tied row keeps
/// the certificate from settling the matching.
#[test]
fn certificate_declines_a_tied_row() {
    let w = Matrix::from_rows(&[&[5.0, 5.0, 0.0], &[0.0, 7.0, 1.0], &[0.0, 0.0, 3.0]]);
    assert!(!identity_certified(&w));
    let w = Matrix::from_rows(&[&[5.0, 4.0, 0.0], &[0.0, 7.0, 6.0], &[2.0, 0.0, 3.0]]);
    assert!(identity_certified(&w));
    assert!(!identity_certified(&Matrix::zeros(2, 3)));
}

proptest! {
    /// Whenever the certificate holds, the identity is the one best
    /// matching: the solver returns it and no permutation does as well.
    #[test]
    fn certified_identity_is_the_unique_optimum(
        seed in 0u64..u64::MAX,
        n in 1usize..7,
        diagonal_boost in 0u64..40,
    ) {
        let mut state = seed;
        let mut w = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let v = next(&mut state) % 20 + if r == c { diagonal_boost } else { 0 };
                w[(r, c)] = v as f64;
            }
        }
        if identity_certified(&w) {
            let identity: Vec<usize> = (0..n).collect();
            prop_assert_eq!(&max_weight_matching(&w).assignment, &identity);
            let best = brute_force_max_matching(&w);
            prop_assert_eq!(&best.assignment, &identity);
            let total: f64 = (0..n).map(|r| w[(r, r)]).sum();
            let mut cols: Vec<usize> = (0..n).collect();
            // Every other permutation scores strictly less.
            for _ in 0..24 {
                for i in (1..n).rev() {
                    cols.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
                }
                if cols != identity {
                    let other: f64 = cols.iter().enumerate().map(|(r, &c)| w[(r, c)]).sum();
                    prop_assert!(other < total);
                }
            }
        }
    }
}

/// A restored history row is validated before it is counted: a label out
/// of range or a row of the wrong length is the oracle's error, not a
/// panic, and leaves the rows unread by the fast count.
#[test]
fn restored_malformed_history_is_the_oracles_error() {
    let mut state = 31u64;
    let x = tick(1, &mut state, &[]);
    let cfg = config(1, 1, 1, SimilarityMeasure::Intersection);
    let mut out_of_range = vec![0usize; N];
    out_of_range[7] = K;
    for history in [out_of_range, vec![0usize; N - 1]] {
        let snap = start(&cfg, &[0.15, 0.35, 0.55, 0.75], history);
        let want = oracle::step_flat(&mut DynamicClusterer::restore(snap.clone()), &x, 1);
        let got = DynamicClusterer::restore(snap).step_flat(&x, 1);
        assert!(want.is_err());
        assert_eq!(got, want);
    }
}
