//! The fits' hot loops allocate nothing. ARIMA: once the per-fit workspace
//! and the optimizer's vertex buffers are built, neither an objective
//! evaluation nor a Nelder–Mead iteration touches the heap. LSTM: once a
//! refit has built its training kernel, Adam moments and window list, no
//! training step does.
//!
//! Shown from outside, with a counting allocator: a run that spends four
//! times the evaluations, or ten times the training windows, makes exactly
//! as many allocations. This file is
//! its own test binary because `#[global_allocator]` is per binary (and
//! needs the one `unsafe impl` the library crates forbid).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use utilcast_linalg::optimize::{nelder_mead, NelderMeadOptions};
use utilcast_timeseries::arima::{Arima, ArimaFitOptions, ArimaOrder};
use utilcast_timeseries::lstm::{Lstm, LstmConfig};
use utilcast_timeseries::Forecaster;

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

/// A wandering utilization-like series (exact arithmetic only).
fn series(n: usize) -> Vec<f64> {
    let mut state = 11u64;
    let mut level = 0.4;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            level = 0.9 * level + 0.04 + ((state >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.02;
            level
        })
        .collect()
}

#[test]
fn nelder_mead_iterations_do_not_allocate() {
    let rosenbrock = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
    let run = |max_evals: usize| {
        let opts = NelderMeadOptions {
            max_evals,
            f_tol: 0.0,
            x_tol: 0.0,
            ..Default::default()
        };
        allocations_during(|| nelder_mead(rosenbrock, &[-1.2, 1.0, 0.5, 2.0], &opts))
    };
    let (short, a) = run(50);
    let (long, b) = run(2000);
    assert!(a.evals >= 50 && b.evals >= 2000, "both budgets are spent");
    assert_eq!(long, short, "1950 more evaluations, same allocations");
    // The 5 vertices, the simplex vector, the centroid and 2 trial points.
    assert_eq!(short, 9);
}

#[test]
fn css_evaluations_do_not_allocate() {
    let history = series(120);
    for order in [
        ArimaOrder::new(2, 0, 1),
        // Span 13: the buffered stability screens.
        ArimaOrder::seasonal(1, 0, 1, 1, 0, 0, 12),
    ] {
        let fit = |max_evals: usize| {
            let mut model = Arima::with_options(
                order,
                ArimaFitOptions {
                    max_evals,
                    ..Default::default()
                },
            );
            let (count, result) = allocations_during(|| model.fit(&history));
            result.expect("fit");
            (count, model)
        };
        let (short, a) = fit(150);
        let (long, b) = fit(600);
        assert_ne!(
            a.fitted(),
            b.fitted(),
            "{order:?}: the longer budget must actually be spent"
        );
        assert_eq!(
            long, short,
            "{order:?}: 450 more evaluations, same allocations"
        );
        assert!(short < 40, "{order:?}: {short} allocations per fit");
    }
}

#[test]
fn lstm_refit_training_steps_do_not_allocate() {
    let history = series(400);
    // Both sides of the width dispatch: the fixed-width kernel at the
    // benchmark's hidden 8, the dynamic-width one at 20.
    for hidden in [8, 20] {
        let mut fitted = Lstm::new(LstmConfig {
            hidden,
            epochs: 2,
            ..Default::default()
        });
        fitted.fit(&history[..100]).expect("fit");
        let refit = |len: usize| {
            let mut model = fitted.clone();
            let (count, result) = allocations_during(|| model.refit(&history[..len]));
            result.expect("refit");
            count
        };
        // The windows new since the fit at 100 plus the 16 replayed before
        // them: 32 at the benchmark's 16-point cadence, 300 after 284.
        let short = refit(116);
        let long = refit(384);
        assert_eq!(
            long, short,
            "hidden {hidden}: 268 more training windows, same allocations"
        );
    }
}
