//! The forecast-table build allocates per build, never per node: the Eq. 12
//! resolve kernel hoists everything it needs of the window's centroids into
//! four tables, reuses one vote scratch, keeps its clipped terms in one
//! term cache (three buffers, plus a step-to-column plan), and writes two
//! output vectors.
//!
//! Shown from outside, with a counting allocator: a fleet 64 times larger
//! makes exactly as many allocations. This file is its own test binary
//! because `#[global_allocator]` is per binary (and needs the one
//! `unsafe impl` the library crates forbid).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use utilcast_core::offset::clip_alpha;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_core::table::{resolve_nodes, WindowStep};
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};

thread_local! {
    /// Allocations made by this thread (the harness runs tests on threads
    /// of their own, so concurrent tests do not disturb each other).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` (no allocation, no destructor) and `try_with` never panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const K: usize = 4;

/// Node `i`'s utilization at tick `t`: four bands, a slow common swing and
/// a per-node wobble wide enough that some values sit in a neighbour's
/// cell (so the clipping divides, not only compares).
fn measurement(i: usize, t: usize) -> f64 {
    let band = 0.15 + 0.2 * (i % K) as f64;
    let swing = 0.02 * ((t % 9) as f64 - 4.0) / 4.0;
    let wobble = 0.13 * (((i * 31 + t * 17) % 41) as f64 / 40.0 - 0.5);
    band + swing + wobble
}

#[test]
fn table_build_allocations_do_not_grow_with_the_fleet() {
    let build = |n: usize| {
        let mut stage = ForecastStage::new(ForecastStageConfig {
            num_nodes: n,
            k: K,
            warmup: 20,
            retrain_every: 10,
            model: ModelSpec::Arima {
                order: ArimaOrder::new(2, 0, 1),
                options: ArimaFitOptions::default(),
            },
            ..Default::default()
        })
        .expect("valid config");
        for t in 0..32 {
            let z: Vec<f64> = (0..n).map(|i| measurement(i, t)).collect();
            stage.step(&z).expect("step");
        }
        let (count, table) = allocations_during(|| stage.build_forecast_table());
        let table = table.expect("table");
        assert_eq!(table.num_nodes(), n);
        assert!(
            (0..n).any(|i| table.node_offset(i) != 0.0),
            "offsets were resolved"
        );
        count
    };
    let small = build(64);
    let large = build(4096);
    assert_eq!(large, small, "4032 more nodes, same allocations");
}

#[test]
fn resolve_allocates_per_build_and_clip_alpha_never() {
    let steps = 6;
    let resolve = |n: usize| {
        let centroids: Vec<Vec<Vec<f64>>> = (0..steps)
            .map(|s| {
                (0..K)
                    .map(|j| vec![0.15 + 0.2 * j as f64 + 0.01 * s as f64])
                    .collect()
            })
            .collect();
        let assignments: Vec<Vec<usize>> = (0..steps)
            .map(|s| (0..n).map(|i| (i + usize::from(i % 7 == s)) % K).collect())
            .collect();
        let values: Vec<Vec<f64>> = (0..steps)
            .map(|s| (0..n).map(|i| measurement(i, s)).collect())
            .collect();
        let window: Vec<WindowStep<'_>> = (0..steps)
            .map(|s| WindowStep {
                assignments: &assignments[s],
                values: &values[s],
                centroids: &centroids[s],
            })
            .collect();
        let (count, resolution) = allocations_during(|| resolve_nodes(&window, n, K));
        assert_eq!(resolution.memberships.len(), n);
        count
    };
    let small = resolve(64);
    assert_eq!(resolve(4096), small, "the per-node part allocates nothing");
    // The vote scratch, the four centroid-pair tables, the two outputs, the
    // fresh term cache's three buffers and its step-to-column plan.
    assert_eq!(small, 11);

    let centroids = vec![
        vec![0.1, 0.2, 0.3],
        vec![0.7, 0.6, 0.9],
        vec![],
        vec![0.4, 0.4, 0.1],
    ];
    let (count, alpha) = allocations_during(|| clip_alpha(&[0.5, 0.45, 0.4], 0, &centroids));
    assert!(alpha < 1.0, "the point sits outside cell 0: {alpha}");
    assert_eq!(count, 0);
}
