//! Criterion micro-benchmarks for the per-step primitives: k-means,
//! Hungarian matching, similarity computation, transmission decisions, and
//! offset estimation. These quantify the paper's "small computation
//! overhead" claims at the operation level.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utilcast_clustering::hungarian::{greedy_matching, max_weight_matching};
use utilcast_clustering::kmeans::{KMeans, KMeansConfig};
use utilcast_clustering::similarity::intersection_similarity;
use utilcast_core::offset::{clip_alpha, node_offset, OffsetSnapshot};
use utilcast_core::pipeline::{Pipeline, PipelineConfig};
use utilcast_core::transmit::{AdaptiveTransmitter, TransmitConfig};
use utilcast_linalg::Matrix;

fn scalar_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| vec![rng.gen::<f64>()]).collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_scalar_k3");
    for &n in &[100usize, 1000, 4000] {
        let points = scalar_points(n, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            let km = KMeans::new(KMeansConfig {
                k: 3,
                n_init: 1,
                seed: 7,
                ..Default::default()
            });
            b.iter(|| km.fit(black_box(pts)).unwrap());
        });
    }
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for &k in &[3usize, 10, 50] {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Matrix::from_vec(k, k, (0..k * k).map(|_| rng.gen::<f64>() * 100.0).collect());
        group.bench_with_input(BenchmarkId::new("hungarian", k), &w, |b, w| {
            b.iter(|| max_weight_matching(black_box(w)));
        });
        group.bench_with_input(BenchmarkId::new("greedy", k), &w, |b, w| {
            b.iter(|| greedy_matching(black_box(w)));
        });
    }
    group.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 4000;
    let new: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
    let prev: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
    c.bench_function("intersection_similarity_4000_nodes", |b| {
        b.iter(|| intersection_similarity(black_box(&new), &[black_box(&prev)], 1, 3).unwrap());
    });
}

fn bench_pipeline_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_tick_n1000_k10");
    group.sample_size(10);
    let mut pipeline = Pipeline::new(PipelineConfig {
        num_nodes: 1000,
        k: 10,
        warmup: 4,
        retrain_every: 10_000,
        ..Default::default()
    })
    .expect("valid config");
    let mut rng = StdRng::seed_from_u64(6);
    // Ten drifting utilization bands, mirroring the scaling_report
    // controller-tick workload; inputs are generated up front so the
    // timed region contains only pipeline work.
    let inputs: Vec<Vec<f64>> = (0..512)
        .map(|t| {
            (0..1000)
                .map(|i| {
                    let band = (i % 10) as f64 / 10.0;
                    (band + 0.05 + (t as f64 * 0.01).sin() * 0.03 + rng.gen::<f64>() * 0.01)
                        .clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect();
    let mut t = 0usize;
    for _ in 0..6 {
        pipeline.step(&inputs[t % inputs.len()]).expect("step");
        t += 1;
    }
    group.bench_function("tick", |b| {
        b.iter(|| {
            pipeline
                .step(black_box(&inputs[t % inputs.len()]))
                .expect("step");
            t += 1;
        });
    });
    group.finish();
}

fn bench_transmit(c: &mut Criterion) {
    c.bench_function("adaptive_transmit_1000_decisions", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<f64> = (0..1000).map(|_| rng.gen()).collect();
        b.iter(|| {
            let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(0.3));
            let mut stored = values[0];
            for &v in &values {
                if tx.decide(black_box(&[v]), &[stored]) {
                    stored = v;
                }
            }
            tx.sent()
        });
    });
}

fn bench_offset(c: &mut Criterion) {
    let centroids: Vec<Vec<f64>> = vec![vec![0.2], vec![0.5], vec![0.8]];
    c.bench_function("clip_alpha", |b| {
        b.iter(|| clip_alpha(black_box(&[0.65]), 1, black_box(&centroids)));
    });
    let values: Vec<Vec<f64>> = scalar_points(1000, 5);
    let snaps: Vec<OffsetSnapshot<'_>> = (0..6)
        .map(|_| OffsetSnapshot {
            values: &values,
            centroids: &centroids,
        })
        .collect();
    c.bench_function("node_offset_m6", |b| {
        b.iter(|| node_offset(black_box(&snaps), 17, 1));
    });
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_hungarian,
    bench_similarity,
    bench_transmit,
    bench_offset,
    bench_pipeline_tick
);
criterion_main!(benches);
