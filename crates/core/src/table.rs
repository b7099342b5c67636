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
//! Gaussian forecast intervals ride along: a [`utilcast_gaussian`] model
//! fitted on the recent centroid history yields a per-cluster standard
//! deviation, widened by `sqrt(h + 1)` per horizon step (the random-walk
//! envelope). Intervals are advisory — they never participate in the
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

use serde::{Deserialize, Serialize};
use utilcast_gaussian::model::GaussianModel;
use utilcast_linalg::Matrix;

use crate::offset::{majority_label, COINCIDENT_DIST_SQ};

/// Number of trailing centroid observations the Gaussian interval model is
/// fitted on. Bounded so table builds stay `O(K² · window)` regardless of
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
/// scalar `c_j` and `j`'s competitors in ascending label order as
/// `(c_j − c_l, (c_j − c_l)²)`. Left out are exactly the labels
/// [`crate::offset::clip_alpha`] skips — `l = j`, labels without a centroid,
/// centroids coincident with `c_j` — so a node's `α` is one straight loop
/// over its row.
struct CentroidPairs {
    /// `c_j` of step `s` at `s * k + j` (a placeholder where that step has
    /// no centroid for `j`).
    centroids: Vec<f64>,
    /// Whether label `j` has a centroid at every step; only such a label
    /// can be resolved as a node's `j*`.
    resolvable: Vec<bool>,
    /// Row `s * k + j` is `pairs[row_start[s * k + j]..row_start[s * k + j + 1]]`.
    row_start: Vec<usize>,
    pairs: Vec<(f64, f64)>,
}

impl CentroidPairs {
    /// Every step of `window` must hold `k` centroids of at most one value.
    fn new(window: &[WindowStep<'_>], k: usize) -> Self {
        let rows = window.len() * k;
        let mut centroids = Vec::with_capacity(rows);
        let mut resolvable = vec![true; k];
        let mut row_start = Vec::with_capacity(rows + 1);
        let mut pairs = Vec::with_capacity(rows * k.saturating_sub(1));
        for step in window {
            for ((j, cj), every_step) in step.centroids.iter().enumerate().zip(&mut resolvable) {
                row_start.push(pairs.len());
                centroids.push(cj.first().copied().unwrap_or(f64::NAN));
                let Some(cj) = cj.first() else {
                    *every_step = false;
                    continue;
                };
                for (l, cl) in step.centroids.iter().enumerate() {
                    let Some(cl) = cl.first() else { continue };
                    let diff = cj - cl;
                    let dist_sq = diff * diff;
                    if l == j || dist_sq < COINCIDENT_DIST_SQ {
                        continue;
                    }
                    pairs.push((diff, dist_sq));
                }
            }
        }
        row_start.push(pairs.len());
        CentroidPairs {
            centroids,
            resolvable,
            row_start,
            pairs,
        }
    }
}

/// Resolves every node's forecast membership `j*` and clipped offset `ŝ_i`
/// (Eq. 12) over a most-recent-first history window of scalar steps: per
/// node a majority vote over its labels and, per window step, `α` against
/// the hoisted `CentroidPairs` row of `j*` and one accumulation of
/// `α·(z − c_j*)` — no allocation, no centroid arithmetic.
///
/// Performs the floating-point operations of
/// [`crate::offset::forecast_membership`] + [`crate::offset::node_offset`]
/// at `dim = 1` in the same order (at one coordinate each of their sums is
/// its single term), so results are bitwise theirs; the allocating code it
/// replaced is kept as the `#[cfg(test)]` oracle this is tested against.
///
/// # Panics
///
/// Panics if the window is empty, a step holds fewer than `n` assignments
/// or values, a label is `>= k`, a step does not hold `k` centroids of at
/// most one value, or a node's `j*` has no centroid at some step.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::table::resolve_nodes
pub fn resolve_nodes(window: &[WindowStep<'_>], n: usize, k: usize) -> NodeResolution {
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
    let table = CentroidPairs::new(window, k);
    let mut counts = vec![0usize; k];
    let mut memberships = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    for i in 0..n {
        let j_star = majority_label(window.iter().map(|step| step.assignments[i]), &mut counts);
        assert!(
            table.resolvable[j_star],
            "cluster {j_star} has no centroid at some window step"
        );
        let mut acc = 0.0;
        for (s, step) in window.iter().enumerate() {
            let row = s * k + j_star;
            let delta = step.values[i] - table.centroids[row];
            let mut alpha: f64 = 1.0;
            for &(diff, dist_sq) in &table.pairs[table.row_start[row]..table.row_start[row + 1]] {
                let proj = delta * diff;
                if proj < 0.0 {
                    alpha = alpha.min(dist_sq / (-2.0 * proj));
                }
            }
            acc += alpha.clamp(0.0, 1.0) * delta;
        }
        memberships.push(j_star);
        offsets.push(acc / window.len() as f64);
    }
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
/// [`generation`](ForecastTable::generation) it was built at, and
/// serializable so checkpoints can carry it. All buffers are flat: the
/// `K × H` centroid trajectories and interval half-widths are row-major
/// per cluster, memberships and offsets are one entry per node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Fits the Gaussian interval model on a `K × window` matrix of recent
/// centroid observations (rows = clusters, most recent last) and returns
/// the `k * horizon` flat half-width buffer: per-cluster standard
/// deviation widened by `sqrt(h + 1)`. All zeros when the window is too
/// short to fit (fewer than two samples).
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts (`(j, j)` ranges over the fitted model's own row count and the
// slice bounds over the buffer sized `k * horizon` two lines above); the
// overflow-checked debug-assert CI job backstops the proof at runtime;
// exemplar chain: core::table::interval_half_widths
pub(crate) fn interval_half_widths(centroid_rows: &Matrix, horizon: usize) -> Vec<f64> {
    let k = centroid_rows.nrows();
    let mut out = vec![0.0; k * horizon];
    let Ok(model) = GaussianModel::fit(centroid_rows) else {
        return out;
    };
    for j in 0..k {
        let sigma = model.cov()[(j, j)].max(0.0).sqrt();
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
    fn table_survives_serde_round_trip() {
        let table = tiny_table(7, 0.25);
        let json = serde_json::to_string(&table).unwrap();
        let back: ForecastTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
        assert_eq!(back.generation(), 7);
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

    #[test]
    fn intervals_zero_on_short_window_and_grow_with_horizon() {
        // One sample: unfit, all zeros.
        let short = Matrix::from_vec(2, 1, vec![0.5, 0.6]);
        assert_eq!(interval_half_widths(&short, 3), vec![0.0; 6]);
        // A real window: positive widths, widening with the horizon.
        let window = Matrix::from_vec(1, 4, vec![0.40, 0.50, 0.45, 0.55]);
        let widths = interval_half_widths(&window, 3);
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
