//! The cached forecast read plane: an immutable flat [`ForecastTable`]
//! resolving any node's forecast in O(1), published through a hand-rolled
//! epoch cell ([`TableCell`]) so unboundedly many concurrent readers never
//! wait on a lock and never observe a torn table.
//!
//! # Why a table
//!
//! Every consumer of the pipeline's predictions previously went through
//! [`crate::stage::ForecastStage::forecast`], which re-runs every
//! per-cluster model, re-derives every node's majority membership over the
//! `M' + 1` window, and re-averages every clipped offset — `O(N·M'·K)`
//! work per call. That is fine for one reader per tick and fatal for a
//! query plane serving millions of point reads between retrains. The
//! table precomputes exactly the three ingredients of Eq. 12 —
//! per-cluster centroid trajectories out to a configured max horizon, the
//! node→cluster membership index, and the per-node clipped offsets — so a
//! point read is two indexed loads and one add, *bitwise identical* to the
//! recompute path because it performs the same final addition on the same
//! operands in the same order.
//!
//! Gaussian forecast intervals ride along: the diagonal of a Gaussian model
//! fitted on the recent centroid history (the ridged sample covariance of
//! `utilcast_gaussian`'s model, of which only the diagonal is computed)
//! yields a per-cluster standard deviation, widened by `sqrt(h + 1)` per
//! horizon step (the random-walk envelope). Intervals are advisory — they never participate in the
//! bitwise point-forecast contract.
//!
//! # Publication protocol
//!
//! [`TableCell`] is a dependency-free epoch/arc-swap: a monotone epoch
//! counter plus a small ring of slots, each holding an `Arc<ForecastTable>`
//! behind an `RwLock` used in a non-blocking discipline. The single writer
//! publishes into the slot *after* the current epoch (never the slot
//! readers are directed at), then advances the epoch with release
//! ordering. A reader loads the epoch (acquire), `try_read`s the current
//! slot, clones the `Arc`, and leaves. Because the writer only ever
//! write-locks a retired slot, a reader's `try_read` on the current slot
//! succeeds unless that reader slept through a full ring of publications —
//! in which case it retries with the fresh epoch and finds an even newer
//! table. Readers therefore never block, never spin on a held lock, and
//! can never observe a torn table (the `Arc` swap is all-or-nothing).
//! Old tables are dropped as their slots are overwritten, so memory stays
//! bounded at `RING` tables regardless of run length.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use utilcast_linalg::stats::sample_variance;

use crate::offset::{majority_label, COINCIDENT_DIST_SQ};

/// Number of trailing centroid observations the Gaussian interval model is
/// fitted on. Bounded so table builds stay `O(K · window)` regardless of
/// run length.
pub const INTERVAL_WINDOW: usize = 64;

/// Per-node membership and offset vectors resolved over a history window —
/// the node-side half of the Eq. 12 assembly, shared by the recompute path
/// ([`crate::stage::ForecastStage::forecast`]) and the table builder so
/// the reference arithmetic has a single source of truth.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResolution {
    /// `j*` per node: the cluster each node belonged to most often within
    /// the window (ties toward the most recent step).
    pub memberships: Vec<usize>,
    /// The clipped Eq. 12 offset `ŝ_i` per node.
    pub offsets: Vec<f64>,
}

/// One step of the look-back window as [`resolve_nodes`] reads it,
/// borrowed from the stage's history: who was where, what was stored, and
/// the step's matched centroids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStep<'a> {
    /// Cluster label of every node at this step.
    pub assignments: &'a [usize],
    /// Stored scalar measurement `z_{i,t-m}` of every node.
    pub values: &'a [f64],
    /// Centroids `c_{j,t-m}`, one per label: vectors of one value. An empty
    /// vector marks a label without a centroid at this step — no competitor
    /// in anyone's `α`, and not resolvable as a node's `j*`.
    pub centroids: &'a [Vec<f64>],
}

/// What the `α` clipping reads of a window's centroids, computed once per
/// build instead of once per node: for every step `s` and label `j`, the
/// scalar `c_j` and `j`'s competitors as `(c_j − c_l, (c_j − c_l)²)`, split
/// by the sign of `c_j − c_l` and ascending in `l` within each half, and
/// each half's certified radius. Left out are the labels
/// [`crate::offset::clip_alpha`] skips — `l = j`, labels without a
/// centroid, centroids coincident with `c_j` — and those whose `c_j − c_l`
/// is NaN, whose `proj` is NaN for every node and so never bounds `α`.
struct CentroidPairs {
    /// Row `r = s * k + j`: `c_j` of step `s` (a placeholder where that
    /// step has no centroid for `j`) and the radii of its two halves.
    rows: Vec<Row>,
    /// Whether label `j` has a centroid at every step; only such a label
    /// can be resolved as a node's `j*`.
    resolvable: Vec<bool>,
    /// Half `h` of row `r` is `pairs[bounds[2 * r + h]..bounds[2 * r + h +
    /// 1]]`: `h = 0` holds the competitors with `c_j − c_l > 0`, `h = 1`
    /// those with `c_j − c_l < 0`.
    bounds: Vec<usize>,
    pairs: Vec<(f64, f64)>,
}

/// One `(step, label)` row of [`CentroidPairs`].
#[derive(Debug, Clone, Copy)]
struct Row {
    centroid: f64,
    /// The [`certified_radius`] of each half: a deviation `Δ` with
    /// `−radius[0] < Δ < radius[1]` is inside the cell, so its clipped
    /// term is `Δ` itself.
    radius: [f64; 2],
}

/// The certified radius of one half-row: half the distance to its nearest
/// competitor; `+∞` for a half without competitors, `0` for one holding a
/// pair whose `(c_j − c_l)²` is not finite (which an infinite `c_j − c_l`
/// makes so).
///
/// For a finite `|Δ| ≤ r` every competitor `l` of the half computes
/// `α_l ≥ 1` or is skipped, so `α` stays `1.0` and the term `1.0·Δ` is `Δ`
/// bit for bit. With `d = |c_j − c_l|` (`d² ≥ 1e-24`, so `d²/2` is normal
/// and halving is exact), `|Δ|·d ≤ d²/2`, and rounding is monotone:
/// `|proj| = fl(|Δ|·d) ≤ fl(d²/2) = fl(d²)/2`, so the quotient
/// `fl(d²)/(2·|proj|)` is at least `1` before its own rounding and the
/// representable `1.0` after it; `proj = ±0` is skipped. The bound is tight:
/// one ulp past `d/2` clips most pairs. The kernel certifies
/// `−r₀ < Δ < r₁`, which puts `|Δ|` under the radius of `Δ`'s own half
/// (and keeps an infinite `Δ` out at `r = +∞`; DESIGN.md §8, *In-cell
/// certificate*).
fn certified_radius(half: &[(f64, f64)]) -> f64 {
    let mut nearest = f64::INFINITY;
    for &(diff, dist_sq) in half {
        if !dist_sq.is_finite() {
            return 0.0;
        }
        nearest = nearest.min(diff.abs());
    }
    0.5 * nearest
}

/// Eq. 12 terms a resolve computed, split by how: `certified` returned `Δ`
/// on the in-cell certificate, `walked` ran the clipping loop. Terms taken
/// from the [`TermCache`] are neither. Only tests read it until the
/// benchmark has a channel for work counters.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct TermWork {
    pub(crate) certified: usize,
    pub(crate) walked: usize,
}

impl CentroidPairs {
    /// Every step of `window` must hold `k` centroids of at most one value.
    fn new(window: &[WindowStep<'_>], k: usize) -> Self {
        let row_count = window.len() * k;
        let mut rows = Vec::with_capacity(row_count);
        let mut resolvable = vec![true; k];
        let mut bounds = Vec::with_capacity(2 * row_count + 1);
        let mut pairs = Vec::with_capacity(row_count * k.saturating_sub(1));
        bounds.push(0);
        for step in window {
            for (j, (cj, every_step)) in step.centroids.iter().zip(&mut resolvable).enumerate() {
                let cj = cj.first().copied();
                *every_step &= cj.is_some();
                let mut radius = [0.0; 2];
                for (h, positive) in [true, false].into_iter().enumerate() {
                    let start = pairs.len();
                    for (l, cl) in step.centroids.iter().enumerate() {
                        let (Some(cj), Some(cl)) = (cj, cl.first()) else {
                            continue;
                        };
                        let diff = cj - cl;
                        let dist_sq = diff * diff;
                        let side = if positive { diff > 0.0 } else { diff < 0.0 };
                        if l != j && dist_sq >= COINCIDENT_DIST_SQ && side {
                            pairs.push((diff, dist_sq));
                        }
                    }
                    radius[h] = certified_radius(pairs.get(start..).unwrap_or_default());
                    bounds.push(pairs.len());
                }
                rows.push(Row {
                    centroid: cj.unwrap_or(f64::NAN),
                    radius,
                });
            }
        }
        CentroidPairs {
            rows,
            resolvable,
            bounds,
            pairs,
        }
    }

    /// The Eq. 12 term `clamp(α, 0, 1)·(z − c_j)` of a node storing `value`
    /// at row `row`; a term that walks the clipping loop counts in
    /// `walked`. A `Δ` within the row's certified radii is inside the cell
    /// and its term is `Δ` (see [`certified_radius`]); a NaN or infinite
    /// `Δ` never is. Only a competitor on the other side of `c_j` from `z`
    /// can make `proj = Δ·(c_j − c_l)` negative, so `α` walks that half of
    /// the row; every other competitor's `proj` is `≥ 0` or NaN and the
    /// full row's `proj < 0.0` test would skip it. The test stays although
    /// on the walked half `proj` is `≤ 0` or NaN: it keeps the oracle's
    /// operations, and skips an underflowed `proj = −0.0` as the oracle
    /// does (its bound would be `+∞`, which `min` ignores).
    #[inline]
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by debug_assert
    // contracts (`row < window.len() * k`, and `bounds` holds two halves per
    // row plus one); the overflow-checked debug-assert CI job backstops the
    // proof at runtime; exemplar chain: core::table::resolve_nodes_reusing
    fn clipped_term(&self, row: usize, value: f64, walked: &mut usize) -> f64 {
        let Row { centroid, radius } = self.rows[row];
        let delta = value - centroid;
        if -radius[0] < delta && delta < radius[1] {
            return delta;
        }
        *walked += 1;
        let half = if delta < 0.0 { 2 * row } else { 2 * row + 1 };
        let mut alpha: f64 = 1.0;
        for &(diff, dist_sq) in &self.pairs[self.bounds[half]..self.bounds[half + 1]] {
            let proj = delta * diff;
            if proj < 0.0 {
                alpha = alpha.min(dist_sq / (-2.0 * proj));
            }
        }
        alpha.clamp(0.0, 1.0) * delta
    }
}

/// The clipped Eq. 12 terms of earlier resolves, kept so a refresh
/// computes only the terms it has not seen: a window step's column is keyed
/// by the step's stamp (see [`resolve_nodes_reusing`]) and a node's terms
/// by the `j*` they were clipped against. Derived state of `N·(M′+1)` terms
/// and `N` labels, never serialized: an empty cache is always valid, it
/// only makes the next resolve compute every term. A resolve that panics
/// part-way leaves its cache inconsistent, to be dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermCache {
    /// Stamp of the window step whose terms column `c` holds; `None` for a
    /// column holding no step's terms.
    stamps: Vec<Option<usize>>,
    /// Node `i`'s term in column `c` is `terms[i * stamps.len() + c]`.
    terms: Vec<f64>,
    /// The `j*` node `i`'s terms were clipped against.
    j_star: Vec<usize>,
    /// How the last resolve computed the terms it did not reuse.
    pub(crate) work: TermWork,
}

/// Resolves every node's forecast membership `j*` and clipped offset `ŝ_i`
/// (Eq. 12) over a most-recent-first history window of scalar steps. Per
/// node: the label every window step agrees on, else a majority vote over
/// its labels; then per window step the term `clamp(α, 0, 1)·(z − c_j*)`,
/// `α` clipped against the hoisted `CentroidPairs` row of `j*` — or, for a
/// `z` inside the row's certified radius, `z − c_j*` itself, the bits the
/// clipping gives there; then the terms summed most-recent-first from
/// `0.0` and divided by the window length. No allocation per node, no
/// centroid arithmetic per node.
///
/// Performs the floating-point operations of
/// [`crate::offset::forecast_membership`] + [`crate::offset::node_offset`]
/// at `dim = 1` in the same order (at one coordinate each of their sums is
/// its single term), so results are bitwise theirs; the allocating code it
/// replaced is kept as the `#[cfg(test)]` oracle this is tested against.
///
/// This is the table kernel with no reusable terms: a refresh through
/// [`crate::stage::ForecastStage::forecast_table`] runs the same kernel on
/// the terms its last refresh computed, and gets the same bits.
///
/// # Panics
///
/// Panics if the window is empty, a step holds fewer than `n` assignments
/// or values, a label is `>= k`, a step does not hold `k` centroids of at
/// most one value, or a node's `j*` has no centroid at some step.
pub fn resolve_nodes(window: &[WindowStep<'_>], n: usize, k: usize) -> NodeResolution {
    resolve_nodes_reusing(window, window.len(), n, k, &mut TermCache::default())
}

/// [`resolve_nodes`] over a window whose step `s` carries the stamp
/// `newest − s`, reusing what `cache` holds: a step's term for a
/// node is taken from the cache when the cache holds that step's stamp and
/// the node's `j*` is the one its terms were clipped against, and is
/// clipped and stored otherwise. A cached term is the value the same
/// operations gave when it was computed, and the fold reads the terms in
/// the same most-recent-first order, so the result is bitwise
/// [`resolve_nodes`]'s whatever the cache holds.
///
/// A stamp must name one window step's contents for as long as `cache`
/// lives: the caller hands one cache only windows whose steps were stamped
/// by one counter.
///
/// # Panics
///
/// As [`resolve_nodes`], and if `newest < window.len() − 1`.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts (a column index is a remainder mod `stamps.len() >=
// window.len()`, the terms buffer holds `n` rows of that many columns); the overflow-checked
// debug-assert CI job backstops the proof at runtime; exemplar chain:
// core::table::resolve_nodes_reusing
pub(crate) fn resolve_nodes_reusing(
    window: &[WindowStep<'_>],
    newest: usize,
    n: usize,
    k: usize,
    cache: &mut TermCache,
) -> NodeResolution {
    assert!(!window.is_empty(), "resolve window must be non-empty");
    for step in window {
        assert!(
            step.assignments.len() >= n && step.values.len() >= n,
            "window step holds {} assignments / {} values for {n} nodes",
            step.assignments.len(),
            step.values.len()
        );
        assert!(
            step.centroids.len() == k && step.centroids.iter().all(|c| c.len() <= 1),
            "window step must hold {k} scalar centroids"
        );
    }
    let w = window.len();
    assert!(
        newest >= w - 1,
        "newest stamp {newest} leaves no stamp for the window's {} older steps",
        w - 1
    );
    let table = CentroidPairs::new(window, k);
    if cache.j_star.len() != n || cache.stamps.len() < w {
        *cache = TermCache {
            stamps: vec![None; w],
            terms: vec![0.0; n * w],
            j_star: vec![usize::MAX; n],
            work: TermWork::default(),
        };
    }
    // Window step `s` keeps its terms in column `(newest − s) % columns`
    // (the window's stamps are consecutive, so its steps use distinct
    // columns), and whether the column holds them already.
    let columns = cache.stamps.len();
    let plan: Vec<(usize, bool)> = (0..w)
        .map(|s| {
            let stamp = newest - s;
            let c = stamp % columns;
            (c, cache.stamps[c] == Some(stamp))
        })
        .collect();
    let uncached = plan.iter().filter(|&&(_, cached)| !cached).count();
    let (mut computed, mut walked) = (0, 0);
    let mut counts = vec![0usize; k];
    let mut memberships = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    for (i, (terms, clipped_against)) in cache
        .terms
        .chunks_exact_mut(columns)
        .zip(&mut cache.j_star)
        .enumerate()
    {
        let newest_label = window[0].assignments[i];
        let j_star = if newest_label < k
            && window[1..]
                .iter()
                .all(|step| step.assignments[i] == newest_label)
        {
            newest_label
        } else {
            majority_label(window.iter().map(|step| step.assignments[i]), &mut counts)
        };
        assert!(
            table.resolvable[j_star],
            "cluster {j_star} has no centroid at some window step"
        );
        let reclip = std::mem::replace(clipped_against, j_star) != j_star;
        computed += if reclip { w } else { uncached };
        let mut acc = 0.0;
        for (s, (step, &(c, cached))) in window.iter().zip(&plan).enumerate() {
            if reclip || !cached {
                terms[c] = table.clipped_term(s * k + j_star, step.values[i], &mut walked);
            }
            acc += terms[c];
        }
        memberships.push(j_star);
        offsets.push(acc / w as f64);
    }
    for (s, &(c, _)) in plan.iter().enumerate() {
        cache.stamps[c] = Some(newest - s);
    }
    cache.work = TermWork {
        certified: computed - walked,
        walked,
    };
    NodeResolution {
        memberships,
        offsets,
    }
}

/// Assembles the per-horizon, per-node forecast matrix
/// (`out[h][node] = cluster_fc[j*][h] + ŝ_i`) from a [`NodeResolution`] —
/// the same addition, on the same operands, in the same order as the
/// original inline loop, so the result is bitwise identical.
///
/// # Panics
///
/// Panics if a membership indexes past `cluster_fc` or a trajectory is
/// shorter than `horizon`.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::table::assemble_forecast
pub fn assemble_forecast(
    cluster_fc: &[Vec<f64>],
    resolution: &NodeResolution,
    horizon: usize,
) -> Vec<Vec<f64>> {
    let n = resolution.memberships.len();
    let mut out = vec![vec![0.0; n]; horizon];
    for i in 0..n {
        let j_star = resolution.memberships[i];
        let offset = resolution.offsets[i];
        for (h, row) in out.iter_mut().enumerate() {
            row[i] = cluster_fc[j_star][h] + offset;
        }
    }
    out
}

/// Immutable flat forecast table: everything needed to answer
/// "what is node `i`'s forecast `h + 1` steps ahead?" in O(1).
///
/// Built by [`crate::stage::ForecastStage::build_forecast_table`] from the
/// same window state the recompute path reads, stamped with the stage
/// [`generation`](ForecastTable::generation) it was built at. It is
/// derived state: checkpoints never carry it, and a restored stage
/// rebuilds it bit for bit. All buffers are flat: the
/// `K × H` centroid trajectories and interval half-widths are row-major
/// per cluster, memberships and offsets are one entry per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastTable {
    generation: u64,
    horizon: usize,
    num_nodes: usize,
    k: usize,
    /// `k * horizon` centroid forecasts, row-major per cluster.
    cluster_fc: Vec<f64>,
    /// `k * horizon` Gaussian interval half-widths, row-major per cluster;
    /// all zero when the interval model could not be fitted (fewer than
    /// two centroid observations).
    intervals: Vec<f64>,
    /// `j*` per node.
    memberships: Vec<usize>,
    /// Clipped Eq. 12 offset per node.
    offsets: Vec<f64>,
}

impl ForecastTable {
    /// Assembles a table from its parts. Crate-internal: the stage is the
    /// only builder, so tables in the wild always reflect real stage state.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths are inconsistent with the dimensions.
    pub(crate) fn from_parts(
        generation: u64,
        horizon: usize,
        k: usize,
        cluster_fc: Vec<f64>,
        intervals: Vec<f64>,
        resolution: NodeResolution,
    ) -> Self {
        assert_eq!(cluster_fc.len(), k * horizon, "trajectory buffer length");
        assert_eq!(intervals.len(), k * horizon, "interval buffer length");
        assert_eq!(
            resolution.memberships.len(),
            resolution.offsets.len(),
            "membership/offset length mismatch"
        );
        ForecastTable {
            generation,
            horizon,
            num_nodes: resolution.memberships.len(),
            k,
            cluster_fc,
            intervals,
            memberships: resolution.memberships,
            offsets: resolution.offsets,
        }
    }

    /// The stage generation this table was built at. A table is fresh
    /// exactly while its generation matches the stage's; any step, retrain,
    /// fallback activation, or recovery bumps the stage generation and
    /// retires the table.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Horizons stored: indices `0..horizon()` answer `h + 1` steps ahead.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of nodes resolved.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node `node`'s forecast at horizon index `h` (`h + 1` steps ahead):
    /// `cluster_fc[j*][h] + ŝ_node`, bitwise identical to entry
    /// `[h][node]` of the recompute path at the same generation and
    /// horizon.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()` or `h >= horizon()`.
    #[inline]
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::table::ForecastTable::node_forecast
    pub fn node_forecast(&self, node: usize, h: usize) -> f64 {
        assert!(node < self.num_nodes, "node {node} out of range");
        assert!(h < self.horizon, "horizon index {h} out of range");
        let j_star = self.memberships[node];
        self.cluster_fc[j_star * self.horizon + h] + self.offsets[node]
    }

    /// The Gaussian interval half-width for node `node` at horizon index
    /// `h`: the forecast is `node_forecast(node, h) ± node_interval(node,
    /// h)` under the fitted centroid model. Zero when the interval model
    /// could not be fitted.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()` or `h >= horizon()`.
    #[inline]
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::table::ForecastTable::node_interval
    pub fn node_interval(&self, node: usize, h: usize) -> f64 {
        assert!(node < self.num_nodes, "node {node} out of range");
        assert!(h < self.horizon, "horizon index {h} out of range");
        let j_star = self.memberships[node];
        self.intervals[j_star * self.horizon + h]
    }

    /// Node `node`'s resolved cluster `j*`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::table::ForecastTable::node_membership
    pub fn node_membership(&self, node: usize) -> usize {
        self.memberships[node]
    }

    /// Node `node`'s clipped Eq. 12 offset `ŝ`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::table::ForecastTable::node_offset
    pub fn node_offset(&self, node: usize) -> f64 {
        self.offsets[node]
    }

    /// Cluster `j`'s centroid trajectory over all stored horizons.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k()`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::table::ForecastTable::cluster_trajectory
    pub fn cluster_trajectory(&self, j: usize) -> &[f64] {
        &self.cluster_fc[j * self.horizon..(j + 1) * self.horizon]
    }

    /// Re-assembles the full per-horizon, per-node matrix from the table
    /// (`out[h][node]`), bitwise identical to the recompute path at this
    /// generation — the differential-testing bridge between the O(1) read
    /// path and [`crate::stage::ForecastStage::forecast`].
    pub fn forecast_matrix(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.num_nodes]; self.horizon];
        for i in 0..self.num_nodes {
            let j_star = self.memberships[i];
            let offset = self.offsets[i];
            for (h, row) in out.iter_mut().enumerate() {
                row[i] = self.cluster_fc[j_star * self.horizon + h] + offset;
            }
        }
        out
    }
}

/// The `k * horizon` flat interval half-width buffer for `k` rows of recent
/// centroid observations (one row per cluster, most recent last, every row
/// the same length): per-cluster standard deviation widened by
/// `sqrt(h + 1)`. All zeros when the rows are too short to fit (fewer than
/// two samples).
///
/// The deviation is the diagonal of the Gaussian model's ridged sample
/// covariance, and only the diagonal is computed: each row's sample
/// variance plus the ridge `1e-6 × max(|trace / k|, 1e-3)`. These are the
/// operations `utilcast_gaussian::model::GaussianModel::fit` performs for
/// the diagonal entries, in its order, so the widths are bitwise those of
/// the `K × K` fit.
pub(crate) fn interval_half_widths<'a>(
    rows: impl Iterator<Item = &'a [f64]>,
    horizon: usize,
) -> Vec<f64> {
    let mut short = false;
    let variances: Vec<f64> = rows
        .map(|row| {
            short |= row.len() < 2;
            sample_variance(row)
        })
        .collect();
    let k = variances.len();
    let mut out = vec![0.0; k * horizon];
    if short {
        return out;
    }
    let trace: f64 = variances.iter().sum();
    let ridge = (trace / k as f64).abs().max(1e-3) * 1e-6;
    for (j, variance) in variances.iter().enumerate() {
        let sigma = (variance + ridge).max(0.0).sqrt();
        for (h, slot) in out[j * horizon..(j + 1) * horizon].iter_mut().enumerate() {
            *slot = sigma * ((h + 1) as f64).sqrt();
        }
    }
    out
}

/// Ring size of the publication cell. Four retired slots means a reader
/// would have to sleep through four complete table publications between
/// loading the epoch and touching the slot before it ever needs to retry.
const RING: usize = 4;

/// The published state shared by every handle of one [`TableCell`].
#[derive(Debug)]
struct CellState {
    /// Publication count. Epoch `e > 0` directs readers at slot
    /// `(e - 1) % RING`; `0` means nothing is published yet.
    epoch: AtomicU64,
    /// The slot ring. The writer only ever write-locks the slot *behind*
    /// the published epoch, so readers' `try_read` on the current slot is
    /// uncontended in steady state.
    slots: [RwLock<Option<Arc<ForecastTable>>>; RING],
    /// Table reads served through this cell, recorded in relaxed batches
    /// ([`TableCell::record_reads`]) exactly like the bandwidth meter.
    reads: AtomicU64,
}

/// A cloneable handle to the epoch-published [`ForecastTable`] — the read
/// side of the forecast plane. All clones share one cell; readers on any
/// thread call [`TableCell::load`] to obtain the freshest published table
/// without ever blocking on the writer (see the module docs for the
/// protocol).
#[derive(Debug, Clone)]
pub struct TableCell {
    state: Arc<CellState>,
}

impl Default for TableCell {
    fn default() -> Self {
        TableCell::new()
    }
}

impl TableCell {
    /// Creates an empty cell (no table published yet).
    pub fn new() -> Self {
        TableCell {
            state: Arc::new(CellState {
                epoch: AtomicU64::new(0),
                slots: std::array::from_fn(|_| RwLock::new(None)),
                reads: AtomicU64::new(0),
            }),
        }
    }

    /// Publishes a new table. Single-writer: called only by the owning
    /// stage, whose `&mut` receiver already serializes publications. The
    /// write lock taken here is on a *retired* slot — current readers are
    /// directed elsewhere — so the only possible contention is a reader
    /// that slept through `RING` publications, whose guard is held just
    /// long enough to clone an `Arc`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts (the slot index is `epoch % RING`, always in
    // range of the fixed-size ring); the overflow-checked debug-assert CI
    // job backstops the proof at runtime; exemplar chain:
    // core::table::TableCell::publish
    pub fn publish(&self, table: Arc<ForecastTable>) {
        let epoch = self.state.epoch.load(Ordering::Relaxed);
        let slot = (epoch as usize) % RING;
        match self.state.slots[slot].write() {
            Ok(mut guard) => *guard = Some(table),
            // A poisoned slot means a reader panicked while holding the
            // guard; the stored Arc is still intact (cloning cannot
            // half-complete), so publishing over it is safe.
            Err(poisoned) => *poisoned.into_inner() = Some(table),
        }
        self.state.epoch.store(epoch + 1, Ordering::Release);
    }

    /// The freshest published table, or `None` before the first
    /// publication. Never blocks: on the rare epoch race (the reader slept
    /// through a full ring of publications between loading the epoch and
    /// locking the slot) it retries with the fresh epoch, which points at
    /// a slot the writer is not holding.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts (the slot index is `(epoch - 1) % RING` under
    // an `epoch > 0` guard, always in range of the fixed-size ring); the
    // overflow-checked debug-assert CI job backstops the proof at runtime;
    // exemplar chain: core::table::TableCell::load
    pub fn load(&self) -> Option<Arc<ForecastTable>> {
        loop {
            let epoch = self.state.epoch.load(Ordering::Acquire);
            if epoch == 0 {
                return None;
            }
            let slot = ((epoch - 1) as usize) % RING;
            if let Ok(guard) = self.state.slots[slot].try_read() {
                if let Some(table) = guard.as_ref() {
                    return Some(Arc::clone(table));
                }
            }
            // Lost the race against RING concurrent publications (or the
            // slot was poisoned by a panicking reader): reload the epoch
            // and take the newer table.
            std::hint::spin_loop();
        }
    }

    /// The epoch (publication count) — `0` before the first publication.
    pub fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::Acquire)
    }

    /// Records `n` table reads served through this cell (relaxed, like the
    /// bandwidth meter: totals are read at quiescent points only).
    pub fn record_reads(&self, n: u64) {
        self.state.reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Total table reads recorded so far.
    pub fn reads_served(&self) -> u64 {
        self.state.reads.load(Ordering::Relaxed)
    }

    /// Overwrites the read counter — used by checkpoint restore so a
    /// restored stage replays its read accounting bit-identically.
    pub fn set_reads_served(&self, n: u64) {
        self.state.reads.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table(generation: u64, value: f64) -> ForecastTable {
        ForecastTable::from_parts(
            generation,
            2,
            1,
            vec![value, value + 1.0],
            vec![0.0, 0.0],
            NodeResolution {
                memberships: vec![0, 0],
                offsets: vec![0.0, 0.25],
            },
        )
    }

    #[test]
    fn node_forecast_adds_offset_to_trajectory() {
        let table = tiny_table(1, 0.5);
        assert_eq!(table.node_forecast(0, 0), 0.5);
        assert_eq!(table.node_forecast(1, 0), 0.75);
        assert_eq!(table.node_forecast(1, 1), 1.75);
        assert_eq!(table.node_interval(0, 0), 0.0);
        assert_eq!(table.node_membership(1), 0);
        assert_eq!(table.node_offset(1), 0.25);
        assert_eq!(table.cluster_trajectory(0), &[0.5, 1.5]);
        assert_eq!(
            table.forecast_matrix(),
            vec![vec![0.5, 0.75], vec![1.5, 1.75]]
        );
    }

    #[test]
    #[should_panic(expected = "horizon index")]
    fn out_of_range_horizon_panics() {
        tiny_table(1, 0.5).node_forecast(0, 2);
    }

    #[test]
    fn assemble_matches_manual_loop() {
        let cluster_fc = vec![vec![0.2, 0.3], vec![0.8, 0.7]];
        let resolution = NodeResolution {
            memberships: vec![0, 1, 1],
            offsets: vec![0.01, -0.02, 0.0],
        };
        let out = assemble_forecast(&cluster_fc, &resolution, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![0.2 + 0.01, 0.8 - 0.02, 0.8]);
        assert_eq!(out[1], vec![0.3 + 0.01, 0.7 - 0.02, 0.7]);
    }

    #[test]
    #[should_panic(expected = "cluster 1 has no centroid")]
    fn resolving_onto_a_label_without_a_centroid_panics() {
        // An empty centroid vector is skipped as a competitor (node 0
        // resolves) but cannot anchor a node's offset (node 1).
        let centroids = vec![vec![0.2], vec![]];
        let window = [WindowStep {
            assignments: &[0, 1],
            values: &[0.25, 0.8],
            centroids: &centroids,
        }];
        assert_eq!(resolve_nodes(&window, 1, 2).memberships, vec![0]);
        resolve_nodes(&window, 2, 2);
    }

    /// Whether a node labelled `0` at a one-step window with these scalar
    /// centroids walks the clipping loop for its stored `value`, checked
    /// against the offset the kernel gives (a certified term is the
    /// deviation itself, which the fold adds to `0.0`).
    fn walks(centroids: &[f64], value: f64) -> bool {
        let centroids: Vec<Vec<f64>> = centroids.iter().map(|&c| vec![c]).collect();
        let window = [WindowStep {
            assignments: &[0],
            values: &[value],
            centroids: &centroids,
        }];
        let mut cache = TermCache::default();
        let got = resolve_nodes_reusing(&window, 0, 1, centroids.len(), &mut cache);
        assert_eq!(cache.work.walked + cache.work.certified, 1);
        if cache.work.certified == 1 {
            let delta = value - centroids[0][0];
            assert_eq!(got.offsets[0].to_bits(), (0.0 + delta).to_bits());
        }
        cache.work.walked == 1
    }

    #[test]
    fn the_certificate_is_the_open_half_distance_to_the_nearest_competitor_per_side() {
        // c_0 = 0, so a stored value is its own deviation. Nearest
        // competitor below at 0.2 (radius 0.1), above at 0.5 (radius 0.25).
        let c = [0.0, -0.2, 0.5, 0.9, -0.7];
        for (value, walked) in [
            (0.0, false),
            (-0.0, false),
            (5e-324, false),
            (0.15, false),
            (0.25_f64.next_down(), false),
            (0.25, true),
            (0.25_f64.next_up(), true),
            (0.3, true),
            ((-0.1_f64).next_up(), false),
            (-0.1, true),
            (-0.15, true),
            (f64::NAN, true),
            (f64::INFINITY, true),
            (f64::NEG_INFINITY, true),
        ] {
            assert_eq!(walks(&c, value), walked, "value {value:e}");
        }
    }

    #[test]
    fn extreme_coincident_and_non_finite_competitors_set_the_radius() {
        // No competitor above the largest centroid: every finite deviation
        // upward is certified, an infinite one is not.
        assert!(!walks(&[0.9, 0.0, 0.5], 1e300));
        assert!(walks(&[0.9, 0.0, 0.5], f64::INFINITY));
        assert!(walks(&[0.9, 0.0, 0.5], 0.6));
        assert!(!walks(&[0.3], -1e300));
        // A coincident centroid is no competitor; one just past the cut is.
        assert!(!walks(&[0.0, 5e-13], 0.4));
        assert!(walks(&[0.0, 2e-12], 0.4));
        // A NaN difference bounds nothing; an infinite one, or a finite
        // one whose square overflows, keeps its whole half walked.
        assert!(!walks(&[0.0, f64::NAN], 0.4));
        assert!(walks(&[0.0, f64::INFINITY, -0.5], 0.1));
        assert!(!walks(&[0.0, f64::INFINITY, -0.5], -0.1));
        assert!(walks(&[0.0, 1e200], 0.1));
        assert!(walks(&[0.0, -1e160, 0.5], -1e-3));
    }

    #[test]
    fn intervals_zero_on_short_window_and_grow_with_horizon() {
        // One sample: unfit, all zeros.
        let short: [&[f64]; 2] = [&[0.5], &[0.6]];
        assert_eq!(interval_half_widths(short.into_iter(), 3), vec![0.0; 6]);
        // A real window: positive widths, widening with the horizon.
        let window: [&[f64]; 1] = [&[0.40, 0.50, 0.45, 0.55]];
        let widths = interval_half_widths(window.into_iter(), 3);
        assert!(widths[0] > 0.0);
        assert!(widths[1] > widths[0] && widths[2] > widths[1]);
        assert_eq!(widths[1], widths[0] * 2.0_f64.sqrt());
    }

    #[test]
    fn cell_starts_empty_and_publishes_latest() {
        let cell = TableCell::new();
        assert!(cell.load().is_none());
        assert_eq!(cell.epoch(), 0);
        cell.publish(Arc::new(tiny_table(1, 0.5)));
        cell.publish(Arc::new(tiny_table(2, 0.9)));
        let table = cell.load().unwrap();
        assert_eq!(table.generation(), 2);
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn cell_read_counter_accumulates_across_clones() {
        let cell = TableCell::new();
        let handle = cell.clone();
        handle.record_reads(3);
        cell.record_reads(2);
        assert_eq!(cell.reads_served(), 5);
        cell.set_reads_served(1);
        assert_eq!(handle.reads_served(), 1);
    }

    #[test]
    fn concurrent_readers_always_observe_a_complete_table() {
        // A writer republishes continuously while readers hammer load();
        // every observed table must be internally consistent (its matrix
        // re-assembles to trajectory + offset) and generations must be
        // monotone per reader.
        let cell = TableCell::new();
        cell.publish(Arc::new(tiny_table(0, 0.0)));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = cell.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last_gen = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let table = cell.load().unwrap();
                        let g = table.generation();
                        assert!(g >= last_gen, "generation went backwards");
                        last_gen = g;
                        let expected = g as f64 * 0.001;
                        assert_eq!(table.node_forecast(0, 0), expected);
                        assert_eq!(table.node_forecast(1, 0), expected + 0.25);
                    }
                });
            }
            for g in 1..=2000u64 {
                cell.publish(Arc::new(tiny_table(g, g as f64 * 0.001)));
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 2001);
    }
}
