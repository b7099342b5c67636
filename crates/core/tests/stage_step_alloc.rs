//! A warm forecast-stage step allocates nothing that grows with the fleet:
//! the clusterer refits its previous result in place (labels, centroids
//! and the k-means scratch persist), re-indexes it into the history row
//! falling out of its window, and the stage copies the result into the
//! snapshot falling out of its own window and into the report's label
//! buffer, which it takes back once the caller drops the report. What is
//! left per step is `K`-sized: the centroid values, the report and the
//! models' observations.
//!
//! Shown from outside, with an allocator that adds up the bytes this
//! thread requests: a fleet 64 times larger requests exactly as many. This
//! file is its own test binary because `#[global_allocator]` is per binary
//! (and needs the one `unsafe impl` the library crates forbid).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use utilcast_core::pipeline::ModelSpec;
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};

thread_local! {
    /// Bytes requested by this thread (the harness runs tests on threads
    /// of their own, so concurrent tests do not disturb each other).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records a request of `size` bytes.
fn record(size: usize) {
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` (no allocation, no destructor) and `try_with` never panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn bytes_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = work();
    (BYTES.with(Cell::get) - before, out)
}

const K: usize = 4;
const WARM: usize = 40;
const MEASURED: usize = 20;

/// Node `i`'s utilization at tick `t`: four bands with a slow common swing;
/// every third node reports something new each tick, the rest repeat.
fn measurement(i: usize, t: usize) -> f64 {
    let band = 0.15 + 0.2 * (i % K) as f64;
    let swing = 0.02 * ((t % 9) as f64 - 4.0) / 4.0;
    let fresh = if (i + t).is_multiple_of(3) { t } else { 0 };
    let wobble = 0.05 * (((i * 31 + fresh * 17) % 41) as f64 / 40.0 - 0.5);
    band + swing + wobble
}

/// Bytes the `MEASURED` steps after `WARM` warm ones request at `n` nodes.
fn steady_bytes(n: usize) -> u64 {
    let mut stage = ForecastStage::new(ForecastStageConfig {
        num_nodes: n,
        k: K,
        // No model trains in the measured steps: a fit's allocations
        // depend on the centroid values, not on n, but would blur the sum.
        warmup: 1_000,
        retrain_every: 1_000,
        model: ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        ..Default::default()
    })
    .expect("valid config");
    let zs: Vec<Vec<f64>> = (0..WARM + MEASURED)
        .map(|t| (0..n).map(|i| measurement(i, t)).collect())
        .collect();
    for z in &zs[..WARM] {
        stage.step(z).expect("step");
    }
    let (bytes, ()) = bytes_during(|| {
        for z in &zs[WARM..] {
            let report = stage.step(z).expect("step");
            assert_eq!(report.assignments.len(), n);
        }
    });
    bytes
}

#[test]
fn warm_scalar_stage_steps_allocate_nothing_that_grows_with_the_fleet() {
    let small = steady_bytes(64);
    let large = steady_bytes(4096);
    let per_node_step = (large as f64 - small as f64) / ((4096 - 64) * MEASURED) as f64;
    assert_eq!(
        large, small,
        "4032 more nodes requested {per_node_step:.1} more bytes per node per step"
    );
}
