//! Lloyd's k-means with k-means++ seeding, deterministic parallelism, and
//! warm starts.
//!
//! This is the per-time-step clustering primitive of the paper's dynamic
//! clustering stage (Sec. V-B, first step). The paper clusters either scalar
//! per-resource measurements (`d = 1`, the recommended mode) or joint
//! multi-resource vectors; both are handled uniformly here.
//!
//! Because the controller re-runs clustering every time step, this module is
//! the hot path of the whole system and is engineered accordingly:
//!
//! * **Deterministic parallelism** — [`KMeansConfig::threads`] distributes
//!   the `n_init` restarts (each with a seed derived from the base seed and
//!   its restart index) and the Lloyd assignment step (a pure per-point
//!   function) over scoped threads. Results are **bit-identical at any
//!   thread count**, including the sequential `threads = 1` path.
//! * **Warm starts** — [`KMeans::fit_from`] runs a single Lloyd descent from
//!   caller-supplied centroids (e.g. the previous time step's result), which
//!   converges in a handful of iterations on slowly drifting data;
//!   [`KMeans::refit_scalar`] does so for scalar points in place, reusing
//!   the previous result's buffers and taking its labels as guesses.
//! * **One assignment scan per shape** — points and centroids live in flat
//!   contiguous buffers, and centroids are ranked by `‖c‖² − 2·x·c` (the
//!   `‖x‖²` term is constant per point) with the final inertia derived
//!   from the same identity. Scalar points (`d = 1`, the paper's
//!   per-resource mode) keep a label that still lies between its two
//!   sorted centroid midpoints and count the midpoints for the rest
//!   (`ScalarIndex`), with no `n`-long buffer but the labels; vector
//!   points go through a point-blocked scan over a transposed centroid
//!   buffer whose inner loops stream unit-stride lanes (see
//!   `utilcast_linalg::simd`). The block scan accumulates every
//!   point×centroid dot in ascending dimension order, so it is
//!   bit-identical to the plain row scan it replaced; that row scan, the
//!   scalar descent the lean one replaced and the original nested
//!   exact-distance descent survive as the `#[cfg(test)]` oracle the
//!   differential suite compares against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use utilcast_linalg::simd;

use crate::parallel::{chunk_len, resolve_threads};
use crate::ClusteringError;

/// Fewest points one worker of an assignment scan is handed: a scan of `n`
/// points fans out to at most `n / MIN_POINTS_PER_WORKER` workers and runs
/// inline below two, since a thread's spawn and join cost more than
/// scanning fewer points than this.
const MIN_POINTS_PER_WORKER: usize = 16_384;

/// The workers a scan of `n` points uses out of `workers` available.
fn scan_workers(n: usize, workers: usize) -> usize {
    // lint:allow(panic-path): the divisor is a non-zero constant
    workers.min(n / MIN_POINTS_PER_WORKER).max(1)
}

/// Configuration for [`KMeans`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// Number of random restarts; the best (lowest-inertia) run wins.
    pub n_init: usize,
    /// Convergence tolerance on centroid movement (squared Euclidean).
    pub tol: f64,
    /// RNG seed for deterministic seeding. Each restart `r` derives its own
    /// seed from `(seed, r)`, so restarts are independent of execution
    /// order.
    pub seed: u64,
    /// Use k-means++ seeding (`true`, default) or uniform random seeding.
    pub plus_plus_init: bool,
    /// Worker threads for the restarts and the Lloyd assignment step:
    /// `0` = one per available CPU, `1` = fully sequential (default).
    /// The result is bit-identical at every thread count.
    pub threads: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 3,
            max_iters: 100,
            n_init: 3,
            tol: 1e-9,
            seed: 0,
            plus_plus_init: true,
            threads: 1,
        }
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index of each input point (`assignments[i] < k`).
    pub assignments: Vec<usize>,
    /// Cluster centroids, `k` vectors of the input dimensionality.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Lloyd iterations used by the winning restart.
    pub iterations: usize,
}

/// K-means clusterer (Lloyd's algorithm).
///
/// # Example
///
/// ```
/// use utilcast_clustering::kmeans::{KMeans, KMeansConfig};
///
/// let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![if i < 10 { 0.0 } else { 5.0 } + i as f64 * 0.01]).collect();
/// let res = KMeans::new(KMeansConfig { k: 2, seed: 1, ..Default::default() }).fit(&pts)?;
/// assert_eq!(res.centroids.len(), 2);
/// # Ok::<(), utilcast_clustering::ClusteringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
    /// The scalar descent's `k`-long buffers, kept across
    /// [`KMeans::refit_scalar`] calls.
    scalar: ScalarScratch,
}

/// Derives the seed of restart `restart` from the base seed with a
/// SplitMix64-style mix, so every restart is an independent deterministic
/// stream regardless of which thread runs it.
fn restart_seed(seed: u64, restart: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(restart.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Copies `points` into one contiguous `n * dim` buffer (row-major).
fn flatten(points: &[Vec<f64>], n: usize, dim: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(n * dim);
    for p in points {
        flat.extend_from_slice(p);
    }
    flat
}

/// Splits a flat `k * dim` centroid buffer back into `k` vectors.
fn unflatten(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(|c| c.to_vec()).collect()
}

/// Reusable per-fit buffers of the vector descent: one allocation per fit,
/// reused by every Lloyd iteration. (Scalar points run
/// [`KMeans::lloyd_scalar`] over a [`ScalarScratch`] instead.)
struct Scratch {
    assignments: Vec<usize>,
    /// The previous iteration's assignments, for the partition-fixed-point
    /// convergence check.
    prev_assignments: Vec<usize>,
    /// `‖c‖² − 2·x·c` of each point's winning centroid, filled by the
    /// assignment step and combined with `point_norms` into the inertia.
    scores: Vec<f64>,
    /// `‖x‖²` of every point, computed once per fit.
    point_norms: Vec<f64>,
    /// Flattened `k x dim` per-cluster coordinate sums.
    sums: Vec<f64>,
    counts: Vec<usize>,
    centroid_norms: Vec<f64>,
    /// Transposed `dim x k` centroid buffer of the block scan.
    cent_t: Vec<f64>,
}

impl Scratch {
    fn new(n: usize, k: usize, dim: usize) -> Self {
        Scratch {
            assignments: vec![0usize; n],
            prev_assignments: vec![usize::MAX; n],
            scores: vec![0.0; n],
            point_norms: vec![0.0; n],
            sums: vec![0.0; k * dim],
            counts: vec![0usize; k],
            centroid_norms: vec![0.0; k],
            cent_t: Vec::new(),
        }
    }
}

/// Points per block of the scalar midpoint count: a block's running counts
/// stay in registers while it is compared against every threshold, so the
/// eight independent counts vectorise instead of forming one dependent
/// chain per point.
const SCALAR_BLOCK: usize = 8;

/// Search structure of the scalar assignment fast path: the distinct
/// centroid values in ascending order (each carrying the lowest original
/// index among its duplicates) and the midpoints between consecutive
/// values. The nearest centroid of a point `x` is then found by *counting*
/// the midpoints below `x` — a short branchless loop instead of the
/// `O(k)` score scan with its data-dependent best-so-far branch.
#[derive(Debug, Clone, Default)]
struct ScalarIndex {
    /// Scratch for sorting `(value, original index)` pairs.
    pairs: Vec<(f64, usize)>,
    /// Lowest original index of each distinct value, ascending by value.
    idx: Vec<usize>,
    /// `midpoint(vals[j], vals[j + 1])` for consecutive distinct values.
    thresholds: Vec<f64>,
    /// Per original index `l`, the midpoints that bound the points the
    /// count gives `l` (`lo[l] < x <= hi[l]`; `∓∞` at the ends),
    /// and `+∞` twice for an index the count never gives (a later
    /// duplicate) and at the extra slot `k` that out-of-range labels
    /// read, so that no point passes for those.
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl ScalarIndex {
    /// Rebuilds the index for the given centroid values.
    // lint:allow(panic-path): fn-scope audit: every idx entry is an
    // original index below centroids.len(), and lo/hi are resized to
    // centroids.len() + 1 before they are written; p - 1 is read only
    // for p > 0 and thresholds[p] only for p < thresholds.len(); exemplar
    // chain: clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_scalar ->
    // clustering::kmeans::ScalarScratch::scan ->
    // clustering::kmeans::ScalarIndex::build
    fn build(&mut self, centroids: &[f64]) {
        self.pairs.clear();
        self.pairs.extend(centroids.iter().copied().zip(0..));
        self.pairs
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.idx.clear();
        self.thresholds.clear();
        let mut prev = f64::NAN;
        for &(v, i) in &self.pairs {
            if v == prev {
                // Duplicate value: same distance to every point, and the
                // run's first entry already carries the lowest original
                // index (ties sort by index), so later duplicates can
                // never win.
                continue;
            }
            if !self.idx.is_empty() {
                self.thresholds.push(0.5 * (prev + v));
            }
            self.idx.push(i);
            prev = v;
        }
        self.lo.clear();
        self.lo.resize(centroids.len() + 1, f64::INFINITY);
        self.hi.clear();
        self.hi.resize(centroids.len() + 1, f64::INFINITY);
        let top = self.thresholds.len();
        for (p, &l) in self.idx.iter().enumerate() {
            self.lo[l] = if p == 0 {
                f64::NEG_INFINITY
            } else {
                self.thresholds[p - 1]
            };
            self.hi[l] = if p == top {
                f64::INFINITY
            } else {
                self.thresholds[p]
            };
        }
    }

    /// Original index of the centroid nearest to `x`. A point exactly on a
    /// midpoint resolves to the lower value (the `>` comparison does not
    /// count it), which is a fixed deterministic choice independent of
    /// thread count.
    #[inline]
    // lint:allow(panic-path): fn-scope audit: the count is at most
    // thresholds.len() = idx.len() - 1, so idx[c] is in bounds; exemplar
    // chain: clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_scalar ->
    // clustering::kmeans::ScalarScratch::scan ->
    // clustering::kmeans::ScalarIndex::label_run ->
    // clustering::kmeans::ScalarIndex::nearest
    fn nearest(&self, x: f64) -> usize {
        let mut c = 0usize;
        for &t in &self.thresholds {
            c += (x > t) as usize;
        }
        self.idx[c]
    }

    /// Whether [`ScalarIndex::nearest`] gives `x` the label `l`, decided by
    /// two comparisons. The count of `x > t` over ascending thresholds is
    /// `p` exactly when `x > t[p − 1]` and `x <= t[p]` (a NaN `x` counts
    /// nothing and fails the first test, and no threshold is NaN: they are
    /// midpoints of finite values), the bounds `lo` and `hi` hold for the
    /// label the count maps `p` to; the `∓∞` ends and the `+∞` sentinels
    /// can only make this answer "no", and a "no" is settled by the count.
    #[inline]
    // lint:allow(panic-path): fn-scope audit: l is clamped to
    // lo.len() - 1 = hi.len() - 1 = k, the sentinel slot; exemplar chain:
    // clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_scalar ->
    // clustering::kmeans::ScalarScratch::scan ->
    // clustering::kmeans::ScalarIndex::label_run ->
    // clustering::kmeans::ScalarIndex::keeps
    fn keeps(&self, x: f64, l: usize) -> bool {
        let l = l.min(self.lo.len() - 1);
        (x > self.lo[l]) & (x <= self.hi[l])
    }

    /// Labels every point of `pts` in place by [`ScalarIndex::nearest`]
    /// and returns whether any label changed. The labels on entry are a
    /// guess — the previous iteration's, or a caller's — checked by
    /// [`ScalarIndex::keeps`]: a block of [`SCALAR_BLOCK`] points whose
    /// guesses all hold is done; any other block is counted with its eight
    /// counts in registers. Either way each label is the one-point count's.
    // lint:allow(panic-path): fn-scope audit: every count is at most
    // thresholds.len() = idx.len() - 1, so idx[c] is in bounds, and the
    // block windows are chunks_exact of equal-length slices; exemplar chain:
    // clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_scalar ->
    // clustering::kmeans::ScalarScratch::scan ->
    // clustering::kmeans::ScalarIndex::label_run
    fn label_run(&self, pts: &[f64], labels: &mut [usize]) -> bool {
        let mut changed = false;
        let mut blocks = pts.chunks_exact(SCALAR_BLOCK);
        let mut label_blocks = labels.chunks_exact_mut(SCALAR_BLOCK);
        for (xb, lb) in (&mut blocks).zip(&mut label_blocks) {
            let kept = xb
                .iter()
                .zip(lb.iter())
                .fold(true, |all, (&x, &l)| all & self.keeps(x, l));
            if kept {
                continue;
            }
            let mut counts = [0usize; SCALAR_BLOCK];
            for &t in &self.thresholds {
                for (c, &x) in counts.iter_mut().zip(xb) {
                    *c += usize::from(x > t);
                }
            }
            for (l, &c) in lb.iter_mut().zip(&counts) {
                let best = self.idx[c];
                changed |= *l != best;
                *l = best;
            }
        }
        for (&x, l) in blocks.remainder().iter().zip(label_blocks.into_remainder()) {
            if !self.keeps(x, *l) {
                let best = self.nearest(x);
                changed |= *l != best;
                *l = best;
            }
        }
        changed
    }
}

/// Buffers of the scalar (`d = 1`) descent: the `k`-long centroid, norm,
/// sum and count rows and the midpoint index, plus two `n`-long rows that
/// only the non-finite-centroid fallback fills. The `n` labels are the
/// caller's. [`KMeans::refit_scalar`] reuses the instance's own across
/// calls; the allocating entry points start from an empty one.
#[derive(Debug, Clone, Default)]
struct ScalarScratch {
    /// The descent's centroids: the initializer on entry, the result on
    /// exit.
    centroids: Vec<f64>,
    /// `‖c‖²` per centroid, refreshed before every score computation.
    norms: Vec<f64>,
    sums: Vec<f64>,
    counts: Vec<usize>,
    index: ScalarIndex,
    /// Fallback block scan only: its winning scores...
    scores: Vec<f64>,
    /// ...and the labels before it, for the fixed-point check.
    before: Vec<usize>,
    /// Whether the last scan was the fallback, whose `scores` the inertia
    /// then reads (the midpoint count keeps none).
    scored: bool,
}

impl ScalarScratch {
    /// One assignment scan over scalar points, labels written in place;
    /// returns whether any label changed. Checks and counts sorted
    /// midpoints ([`ScalarIndex::label_run`]) unless a centroid is
    /// non-finite, where the sorted order would be meaningless and the
    /// block scan runs instead (a `1 x k` centroid buffer is its own
    /// transpose). Pure per point, so the fan-out is identical at any
    /// worker count.
    fn scan(&mut self, x: &[f64], labels: &mut [usize], workers: usize) -> bool {
        if !self.centroids.iter().all(|v| v.is_finite()) {
            self.norms.resize(self.centroids.len(), 0.0);
            refresh_norms(&self.centroids, 1, &mut self.norms);
            self.before.clear();
            self.before.extend_from_slice(labels);
            self.scores.resize(x.len(), 0.0);
            assign_step_block(
                x,
                1,
                &self.centroids,
                &self.norms,
                labels,
                &mut self.scores,
                workers,
            );
            self.scored = true;
            return *labels != *self.before;
        }
        self.scored = false;
        self.index.build(&self.centroids);
        let index = &self.index;
        let n = labels.len();
        let workers = scan_workers(n, workers);
        if workers == 1 {
            return index.label_run(x, labels);
        }
        let chunk = chunk_len(n, workers);
        let mut changed = vec![false; n.div_ceil(chunk)];
        std::thread::scope(|scope| {
            for ((pts, lbl), flag) in x
                .chunks(chunk)
                .zip(labels.chunks_mut(chunk))
                .zip(changed.iter_mut())
            {
                scope.spawn(move || *flag = index.label_run(pts, lbl));
            }
        });
        changed.contains(&true)
    }
}

/// The assignment step for vector points, fanned out over scoped threads
/// when the input gives two or more workers `MIN_POINTS_PER_WORKER` points
/// each. Points are processed `simd::POINT_BLOCK` at a time — each block
/// is transposed once, then
/// `utilcast_linalg::simd::norm_scores_block_lanes` runs a register-blocked
/// mini-GEMM against the `dim x k` transposed centroid buffer (broadcast
/// centroid value, unit-stride accumulate over the eight points) and
/// `simd::argmin_block` picks each point's winner. The sub-block remainder
/// goes through the per-point `simd::norm_scores_lanes` scan. Every
/// point×centroid dot gains its `dim` terms in ascending order and winners
/// are picked by a `+∞`-seeded strict-`<` ascending scan — the op sequence
/// of the `#[cfg(test)]` row-scan oracle, which the differential suite
/// holds this step to bit for bit. Pure per point, so the result is
/// identical at any worker count.
// lint:allow(panic-path): fn-scope audit: assignment labels are < k and
// flat buffers are validated to n * dim by validate_flat/validate_weighted
// before any kernel runs, so every centroid and point window stays in
// bounds; exemplar chain: clustering::kmeans::KMeans::fit_from_flat ->
// clustering::kmeans::KMeans::lloyd_flat ->
// clustering::kmeans::assign_step_block
fn assign_step_block(
    flat: &[f64],
    dim: usize,
    cent_t: &[f64],
    norms: &[f64],
    assignments: &mut [usize],
    scores: &mut [f64],
    workers: usize,
) {
    let k = norms.len();
    const PB: usize = simd::POINT_BLOCK;
    let assign_run = |pts: &[f64], asg: &mut [usize], scs: &mut [f64]| {
        // Block-sized scratch per worker (one transposed point block plus
        // k x PB accumulator/score tiles); tiny next to the n * k * dim
        // scan they enable.
        let mut pts_t = vec![0.0f64; dim * PB];
        let mut acc = vec![0.0f64; k];
        let mut cand = vec![0.0f64; k * PB];
        let mut idx = vec![0usize; PB];
        let mut best = vec![0.0f64; PB];
        let mut blocks = pts.chunks_exact(dim * PB);
        let mut asg_blocks = asg.chunks_exact_mut(PB);
        let mut scs_blocks = scs.chunks_exact_mut(PB);
        for ((block, ab), sb) in (&mut blocks).zip(&mut asg_blocks).zip(&mut scs_blocks) {
            simd::transpose_point_block(block, dim, &mut pts_t);
            simd::norm_scores_block_lanes(&pts_t, cent_t, k, norms, &mut cand);
            simd::argmin_block(&cand, k, &mut idx, &mut best);
            ab.copy_from_slice(&idx);
            sb.copy_from_slice(&best);
        }
        for ((p, a), s) in blocks
            .remainder()
            .chunks_exact(dim)
            .zip(asg_blocks.into_remainder().iter_mut())
            .zip(scs_blocks.into_remainder().iter_mut())
        {
            simd::norm_scores_lanes(p, cent_t, k, norms, &mut acc, &mut cand[..k]);
            (*a, *s) = simd::argmin_score(&cand[..k]);
        }
    };
    let n = assignments.len();
    let workers = scan_workers(n, workers);
    if workers == 1 {
        assign_run(flat, assignments, scores);
        return;
    }
    let chunk = chunk_len(n, workers);
    std::thread::scope(|scope| {
        for ((pts, asg), scs) in flat
            .chunks(chunk * dim)
            .zip(assignments.chunks_mut(chunk))
            .zip(scores.chunks_mut(chunk))
        {
            let assign_run = &assign_run;
            scope.spawn(move || assign_run(pts, asg, scs));
        }
    });
}

/// Recomputes `‖c‖²` for every centroid in the flat buffer into `norms`.
fn refresh_norms(centroids: &[f64], dim: usize, norms: &mut [f64]) {
    for (norm, c) in norms.iter_mut().zip(centroids.chunks_exact(dim)) {
        *norm = utilcast_linalg::kernels::sq_norm(c);
    }
}

impl KMeans {
    /// Creates a clusterer with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans {
            config,
            scalar: ScalarScratch::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Validates the input and returns its dimensionality.
    // lint:allow(panic-path): fn-scope audit: assignment labels are < k and
    // flat buffers are validated to n * dim by
    // validate_flat/validate_weighted before any kernel runs, so every
    // centroid and point window stays in bounds; exemplar chain:
    // clustering::kmeans::KMeans::fit ->
    // clustering::kmeans::KMeans::validate
    fn validate(&self, points: &[Vec<f64>]) -> Result<usize, ClusteringError> {
        if points.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        if self.config.k == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        let dim = points[0].len();
        for (i, p) in points.iter().enumerate() {
            if p.len() != dim {
                return Err(ClusteringError::DimensionMismatch {
                    expected: dim,
                    index: i,
                    found: p.len(),
                });
            }
        }
        Ok(dim)
    }

    /// Validates a flat row-major point buffer and returns the point
    /// count. Zero-dimensional points are representable in the nested API
    /// but not in a flat buffer, so `dim == 0` is rejected as a dimension
    /// mismatch.
    fn validate_flat(&self, flat: &[f64], dim: usize) -> Result<usize, ClusteringError> {
        if flat.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        if self.config.k == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        if dim == 0 || !flat.len().is_multiple_of(dim) {
            return Err(ClusteringError::DimensionMismatch {
                expected: dim,
                index: flat.len().checked_div(dim).unwrap_or(0),
                found: flat.len().checked_rem(dim).unwrap_or(0),
            });
        }
        // lint:allow(panic-path): dim == 0 is rejected by the guard above; chain KMeans::fit_flat -> validate_flat
        Ok(flat.len() / dim)
    }

    /// Checks that a warm-start initializer holds exactly `k` centroids of
    /// dimensionality `dim`.
    fn validate_init(&self, init: &[Vec<f64>], dim: usize) -> Result<(), ClusteringError> {
        if init.len() != self.config.k {
            return Err(ClusteringError::InvalidInit {
                reason: format!(
                    "{} centroids supplied for k = {}",
                    init.len(),
                    self.config.k
                ),
            });
        }
        if let Some(bad) = init.iter().find(|c| c.len() != dim) {
            return Err(ClusteringError::InvalidInit {
                reason: format!(
                    "centroid has dimension {} but points have dimension {dim}",
                    bad.len()
                ),
            });
        }
        Ok(())
    }

    /// [`KMeans::degenerate`] over a flat buffer; identical output.
    fn degenerate_flat(&self, flat: &[f64], n: usize, dim: usize) -> KMeansResult {
        KMeansResult {
            assignments: (0..n).collect(),
            centroids: (0..self.config.k)
                // lint:allow(panic-path): n >= 1 and flat.len() == n * dim from validate_flat, so `% n` cannot trap and the slice stays in bounds; chain KMeans::fit_flat -> degenerate_flat
                .map(|c| flat[(c % n) * dim..(c % n + 1) * dim].to_vec())
                .collect(),
            inertia: 0.0,
            iterations: 0,
        }
    }

    /// The result for zero-dimensional points, which carry no distance
    /// information: one cluster holds everything. Representable only in
    /// the nested API (the flat entry points reject `dim == 0`), and
    /// returned before any scan runs — the flat buffers need `dim >= 1`.
    fn zero_dimensional(&self, n: usize) -> KMeansResult {
        KMeansResult {
            assignments: vec![0; n],
            centroids: vec![Vec::new(); self.config.k],
            inertia: 0.0,
            iterations: 0,
        }
    }

    /// The `k >= n` degenerate result: every point is its own centroid
    /// (extra clusters duplicate existing points, matching the paper's
    /// `K = N` mode in Fig. 7 where the intermediate error reduces to pure
    /// staleness error). Builds the centroid list in a single pass instead
    /// of cloning the whole point set and then topping it up.
    fn degenerate(&self, points: &[Vec<f64>]) -> KMeansResult {
        let n = points.len();
        KMeansResult {
            assignments: (0..n).collect(),
            // lint:allow(panic-path): fit rejects empty inputs before the
            // degenerate branch, so n >= 1 and `c % n` cannot trap; chain
            // KMeans::fit -> KMeans::degenerate
            centroids: (0..self.config.k).map(|c| points[c % n].clone()).collect(),
            inertia: 0.0,
            iterations: 0,
        }
    }

    /// Clusters `points` into `k` groups.
    ///
    /// If `k` is at least the number of points, each point becomes its own
    /// cluster (see [`KMeans::fit_from`] for the warm-start variant).
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError::EmptyInput`] for no points,
    /// [`ClusteringError::ZeroClusters`] for `k == 0`, and
    /// [`ClusteringError::DimensionMismatch`] for ragged input.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<KMeansResult, ClusteringError> {
        let dim = self.validate(points)?;
        if self.config.k >= points.len() {
            return Ok(self.degenerate(points));
        }
        let n = points.len();
        if dim == 0 {
            return Ok(self.zero_dimensional(n));
        }
        let flat = flatten(points, n, dim);
        Ok(self.fit_restarts(&flat, n, dim))
    }

    /// Clusters points supplied as one contiguous row-major buffer
    /// (`n * dim` values) — the allocation-free twin of [`KMeans::fit`]
    /// for callers that already hold flat data (e.g. the controller's
    /// stored vector). Produces bit-identical results to [`KMeans::fit`]
    /// on the equivalent nested input, which is flattened into the same
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError::EmptyInput`] for an empty buffer,
    /// [`ClusteringError::ZeroClusters`] for `k == 0`, and
    /// [`ClusteringError::DimensionMismatch`] when `dim == 0` or the
    /// buffer length is not a multiple of `dim`.
    pub fn fit_flat(&self, flat: &[f64], dim: usize) -> Result<KMeansResult, ClusteringError> {
        let n = self.validate_flat(flat, dim)?;
        if self.config.k >= n {
            return Ok(self.degenerate_flat(flat, n, dim));
        }
        Ok(self.fit_restarts(flat, n, dim))
    }

    /// Warm-started clustering over a contiguous row-major point buffer —
    /// the flat twin of [`KMeans::fit_from`] (the initializer stays
    /// nested, matching how warm centroids are carried between steps).
    ///
    /// # Errors
    ///
    /// Returns the same input errors as [`KMeans::fit_flat`], plus
    /// [`ClusteringError::InvalidInit`] when `init` does not contain
    /// exactly `k` centroids of dimensionality `dim`.
    pub fn fit_from_flat(
        &self,
        flat: &[f64],
        dim: usize,
        init: &[Vec<f64>],
    ) -> Result<KMeansResult, ClusteringError> {
        let cfg = &self.config;
        let n = self.validate_flat(flat, dim)?;
        if cfg.k >= n {
            return Ok(self.degenerate_flat(flat, n, dim));
        }
        self.validate_init(init, dim)?;
        let init_flat = flatten(init, cfg.k, dim);
        let result = self.lloyd_flat(flat, n, dim, init_flat, resolve_threads(cfg.threads));
        debug_assert_partition(&result, n, cfg.k);
        Ok(result)
    }

    /// [`KMeans::fit_from_flat`] for scalar points (`dim == 1`), written
    /// into `out` and bit-identical to it: the labels overwrite
    /// `out.assignments` in place and the centroids reuse `out.centroids`'
    /// rows, and this instance keeps its `k`-long scratch for the next
    /// call, so a refit of an unchanged population allocates nothing.
    ///
    /// When `out.assignments` already holds one label per point — say the
    /// previous refit's, relabelled together with `init` — the first
    /// assignment scan takes them as guesses: each is checked against the
    /// two midpoints around its centroid and counted only if it fails, so
    /// on slowly drifting data most points cost two comparisons. A guess
    /// only saves work; any labels give the same result.
    ///
    /// # Errors
    ///
    /// As [`KMeans::fit_from_flat`] with `dim = 1`; `out` is untouched on
    /// an error.
    pub fn refit_scalar(
        &mut self,
        x: &[f64],
        init: &[Vec<f64>],
        out: &mut KMeansResult,
    ) -> Result<(), ClusteringError> {
        let k = self.config.k;
        let n = self.validate_flat(x, 1)?;
        if k >= n {
            *out = self.degenerate_flat(x, n, 1);
            return Ok(());
        }
        self.validate_init(init, 1)?;
        out.assignments.resize(n, 0);
        let mut scratch = std::mem::take(&mut self.scalar);
        scratch.centroids.clear();
        scratch.centroids.extend(init.iter().flatten());
        let workers = resolve_threads(self.config.threads);
        let (inertia, iterations) =
            self.lloyd_scalar(x, &mut out.assignments, &mut scratch, workers);
        out.centroids.resize_with(k, Vec::new);
        for (row, &c) in out.centroids.iter_mut().zip(&scratch.centroids) {
            row.clear();
            row.push(c);
        }
        out.inertia = inertia;
        out.iterations = iterations;
        self.scalar = scratch;
        debug_assert_partition(out, n, k);
        Ok(())
    }

    /// The shared restart driver behind [`KMeans::fit`] and
    /// [`KMeans::fit_flat`]: runs `n_init` seeded restarts (parallel when
    /// configured) and reduces them in restart order.
    fn fit_restarts(&self, flat: &[f64], n: usize, dim: usize) -> KMeansResult {
        let cfg = &self.config;
        let n_init = cfg.n_init.max(1);
        let workers = resolve_threads(cfg.threads);
        let runs: Vec<KMeansResult> = if workers > 1 && n_init > 1 {
            // Parallel restarts: each restart derives its own seed and runs
            // a fully sequential Lloyd descent, so the per-restart results
            // do not depend on which thread computed them.
            let mut slots: Vec<Option<KMeansResult>> = (0..n_init).map(|_| None).collect();
            let chunk = chunk_len(n_init, workers);
            std::thread::scope(|scope| {
                for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || {
                        for (off, slot) in slot_chunk.iter_mut().enumerate() {
                            *slot = Some(self.fit_once(flat, n, dim, (w * chunk + off) as u64, 1));
                        }
                    });
                }
            });
            slots.into_iter().flatten().collect()
        } else {
            (0..n_init)
                .map(|r| self.fit_once(flat, n, dim, r as u64, workers))
                .collect()
        };
        // Reduce in restart order: earliest restart wins ties, so the
        // winner is independent of execution order.
        let mut best: Option<KMeansResult> = None;
        for run in runs {
            match &best {
                Some(b) if b.inertia <= run.inertia => {}
                _ => best = Some(run),
            }
        }
        // Every restart fills its slot, so `best` is always present; the
        // sequential fallback keeps this branch panic-free regardless.
        let best = match best {
            Some(b) => b,
            None => self.fit_once(flat, n, dim, 0, workers),
        };
        debug_assert_partition(&best, n, self.config.k);
        best
    }

    /// Clusters `points` starting Lloyd's descent from the given centroids
    /// (warm start) instead of random seeding. On slowly drifting data —
    /// the paper's temporal-continuity setting — a warm start from the
    /// previous step's centroids is near-converged and replaces `n_init`
    /// cold restarts with a single short descent.
    ///
    /// The degenerate `k >= n` case behaves exactly like [`KMeans::fit`]
    /// (the initializer is irrelevant there).
    ///
    /// # Errors
    ///
    /// Returns the same input errors as [`KMeans::fit`], plus
    /// [`ClusteringError::InvalidInit`] when `init` does not contain
    /// exactly `k` centroids of the points' dimensionality.
    pub fn fit_from(
        &self,
        points: &[Vec<f64>],
        init: &[Vec<f64>],
    ) -> Result<KMeansResult, ClusteringError> {
        let cfg = &self.config;
        let dim = self.validate(points)?;
        if cfg.k >= points.len() {
            return Ok(self.degenerate(points));
        }
        self.validate_init(init, dim)?;
        let n = points.len();
        if dim == 0 {
            return Ok(self.zero_dimensional(n));
        }
        let flat = flatten(points, n, dim);
        let init_flat = flatten(init, cfg.k, dim);
        let result = self.lloyd_flat(&flat, n, dim, init_flat, resolve_threads(cfg.threads));
        debug_assert_partition(&result, n, cfg.k);
        Ok(result)
    }

    /// One restart: seed centroids from the restart's derived RNG stream,
    /// then run Lloyd's descent.
    fn fit_once(
        &self,
        flat: &[f64],
        n: usize,
        dim: usize,
        restart: u64,
        workers: usize,
    ) -> KMeansResult {
        let mut rng = StdRng::seed_from_u64(restart_seed(self.config.seed, restart));
        let init = if self.config.plus_plus_init {
            plus_plus_seed(flat, n, dim, self.config.k, &mut rng)
        } else {
            random_seed(flat, n, dim, self.config.k, &mut rng)
        };
        self.lloyd_flat(flat, n, dim, init, workers)
    }

    /// Lloyd descent over the flat buffers. All floating-point
    /// reductions (centroid sums, movement, inertia) run sequentially in
    /// point/cluster order on the calling thread; only the pure per-point
    /// assignment scan fans out, so the result is bit-identical at any
    /// `workers` count. Scalar points go to [`KMeans::lloyd_scalar`].
    // lint:allow(panic-path): fn-scope audit: assignment labels are < k and
    // flat buffers are validated to n * dim by
    // validate_flat/validate_weighted before any kernel runs, so every
    // centroid and point window stays in bounds; exemplar chain:
    // clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_flat
    fn lloyd_flat(
        &self,
        flat: &[f64],
        n: usize,
        dim: usize,
        mut centroids: Vec<f64>,
        workers: usize,
    ) -> KMeansResult {
        if dim == 1 {
            let mut scratch = ScalarScratch {
                centroids,
                ..ScalarScratch::default()
            };
            let mut assignments = vec![0usize; n];
            let (inertia, iterations) =
                self.lloyd_scalar(flat, &mut assignments, &mut scratch, workers);
            return KMeansResult {
                assignments,
                centroids: unflatten(&scratch.centroids, 1),
                inertia,
                iterations,
            };
        }
        let cfg = &self.config;
        let k = cfg.k;
        let mut scratch = Scratch::new(n, k, dim);
        for (pn, p) in scratch.point_norms.iter_mut().zip(flat.chunks_exact(dim)) {
            *pn = utilcast_linalg::kernels::sq_norm(p);
        }
        // One assignment dispatch for both the iteration loop and the final
        // pass: the transposed block scan.
        let run_assign = |centroids: &[f64], scratch: &mut Scratch| {
            refresh_norms(centroids, dim, &mut scratch.centroid_norms);
            simd::transpose_centroids(centroids, k, dim, &mut scratch.cent_t);
            assign_step_block(
                flat,
                dim,
                &scratch.cent_t,
                &scratch.centroid_norms,
                &mut scratch.assignments,
                &mut scratch.scores,
                workers,
            );
        };
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            // Assignment step (parallel, pure per point).
            run_assign(&centroids, &mut scratch);
            // Partition fixed point: if the assignment reproduced the
            // previous iteration's partition, the update step recomputes
            // exactly the same means (same sums in the same order), so the
            // centroids would not move and the final re-assignment pass
            // would reproduce the scan we just did. Stop here and reuse
            // the assignments and scores — bit-identical to running the
            // no-op update plus the final pass, one full scan cheaper.
            if iter > 0 && scratch.assignments == scratch.prev_assignments {
                converged = true;
                break;
            }
            scratch
                .prev_assignments
                .copy_from_slice(&scratch.assignments);
            // Update step (sequential, fixed accumulation order).
            scratch.sums.fill(0.0);
            scratch.counts.fill(0);
            for (p, &a) in flat.chunks_exact(dim).zip(&scratch.assignments) {
                scratch.counts[a] += 1;
                for (s, v) in scratch.sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
                    *s += v;
                }
            }
            let mut movement: f64 = 0.0;
            for c in 0..k {
                if scratch.counts[c] == 0 {
                    // Empty cluster: re-seed at the point farthest from its
                    // assigned centroid to keep exactly k non-empty
                    // clusters. `total_cmp` keeps the argmax well-defined
                    // (and deterministic) even if a distance went NaN.
                    let Some(far) = (0..n).max_by(|&i, &j| {
                        let ai = scratch.assignments[i];
                        let aj = scratch.assignments[j];
                        let da = sq_dist(
                            &flat[i * dim..(i + 1) * dim],
                            &centroids[ai * dim..(ai + 1) * dim],
                        );
                        let db = sq_dist(
                            &flat[j * dim..(j + 1) * dim],
                            &centroids[aj * dim..(aj + 1) * dim],
                        );
                        da.total_cmp(&db)
                    }) else {
                        continue; // n == 0 cannot reach here (validated)
                    };
                    let far_pt = &flat[far * dim..(far + 1) * dim];
                    movement += sq_dist(&centroids[c * dim..(c + 1) * dim], far_pt);
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(far_pt);
                    continue;
                }
                let count = scratch.counts[c] as f64;
                let mut delta = 0.0;
                for (coord, s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&scratch.sums[c * dim..(c + 1) * dim])
                {
                    let new = s / count;
                    delta += (*coord - new) * (*coord - new);
                    *coord = new;
                }
                movement += delta;
            }
            if movement <= cfg.tol {
                break;
            }
        }
        // Final assignment pass (skipped when the loop already ended on a
        // fixed-point assignment scan against the final centroids); the
        // inertia combines the cached per-point norms with the winning
        // scores (`‖x‖² + ‖c‖² − 2·x·c`), clamped at zero per point,
        // accumulated sequentially in point order.
        if !converged {
            run_assign(&centroids, &mut scratch);
        }
        let mut inertia = 0.0;
        for (&pn, &s) in scratch.point_norms.iter().zip(&scratch.scores) {
            inertia += (pn + s).max(0.0);
        }
        KMeansResult {
            assignments: scratch.assignments,
            centroids: unflatten(&centroids, dim),
            inertia,
            iterations,
        }
    }

    /// The Lloyd descent for scalar points (`d = 1`, the paper's
    /// per-resource mode) over `s.centroids` (the initializer on entry, the
    /// result on exit) and the caller's `labels`, returning the inertia and
    /// the iteration count. It computes what the vector descent computes —
    /// the same fixed-point stop, update sums, re-seeds, movement and
    /// inertia, in the same order — with no `n`-long buffer of its own:
    ///
    /// * a scan starts from the labels already in `labels` and counts only
    ///   the points whose label no longer holds ([`ScalarIndex::label_run`]),
    ///   and reports whether one changed, so the fixed-point check needs no
    ///   copy of the previous partition;
    /// * it keeps no per-point score: the inertia recomputes the winner's
    ///   `‖c‖² − 2·x·c` from the final label and centroids, the very
    ///   expression the scan would have stored, and folds `‖x‖²` in as it
    ///   goes (the fallback block scan keeps its scores, which the inertia
    ///   then reads).
    // lint:allow(panic-path): fn-scope audit: labels are < k (written by
    // the scan from the k-long index), x and labels are n long, and every
    // centroid, norm, sum and count row is k long; exemplar chain:
    // clustering::kmeans::KMeans::fit_from_flat ->
    // clustering::kmeans::KMeans::lloyd_flat ->
    // clustering::kmeans::KMeans::lloyd_scalar
    fn lloyd_scalar(
        &self,
        x: &[f64],
        labels: &mut [usize],
        s: &mut ScalarScratch,
        workers: usize,
    ) -> (f64, usize) {
        let cfg = &self.config;
        let k = cfg.k;
        s.sums.resize(k, 0.0);
        s.counts.resize(k, 0);
        let one = std::slice::from_ref;
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            let changed = s.scan(x, labels, workers);
            // Partition fixed point (see `lloyd_flat`): nothing changed,
            // so the update would recompute the same means.
            if iter > 0 && !changed {
                converged = true;
                break;
            }
            s.sums.fill(0.0);
            s.counts.fill(0);
            for (&xi, &a) in x.iter().zip(labels.iter()) {
                s.counts[a] += 1;
                s.sums[a] += xi;
            }
            let mut movement: f64 = 0.0;
            for c in 0..k {
                if s.counts[c] == 0 {
                    // Empty cluster: re-seed at the point farthest from its
                    // (partly updated) assigned centroid, as `lloyd_flat`.
                    let cent = &s.centroids;
                    let Some(far) = (0..x.len()).max_by(|&i, &j| {
                        let da = sq_dist(one(&x[i]), one(&cent[labels[i]]));
                        let db = sq_dist(one(&x[j]), one(&cent[labels[j]]));
                        da.total_cmp(&db)
                    }) else {
                        continue; // n == 0 cannot reach here (validated)
                    };
                    movement += sq_dist(one(&s.centroids[c]), one(&x[far]));
                    s.centroids[c] = x[far];
                    continue;
                }
                let new = s.sums[c] / s.counts[c] as f64;
                let mut delta = 0.0;
                delta += (s.centroids[c] - new) * (s.centroids[c] - new);
                s.centroids[c] = new;
                movement += delta;
            }
            if movement <= cfg.tol {
                break;
            }
        }
        if !converged {
            s.scan(x, labels, workers);
        }
        let mut inertia = 0.0;
        if s.scored {
            for (&xi, &sc) in x.iter().zip(&s.scores) {
                inertia += (utilcast_linalg::kernels::sq_norm(one(&xi)) + sc).max(0.0);
            }
        } else {
            s.norms.resize(k, 0.0);
            refresh_norms(&s.centroids, 1, &mut s.norms);
            let (cent, norms) = (&s.centroids, &s.norms);
            for (&xi, &a) in x.iter().zip(labels.iter()) {
                let score = norms[a] - 2.0 * (xi * cent[a]);
                inertia += (utilcast_linalg::kernels::sq_norm(one(&xi)) + score).max(0.0);
            }
        }
        (inertia, iterations)
    }
}

/// Debug-build invariant from the paper's Sec. V-B: a k-means result is
/// an *exact partition* of the `n` input points — one in-range label per
/// point, with the per-cluster counts summing back to `n` — and every
/// centroid coordinate is finite. Exercised automatically by the simnet
/// determinism suite, which drives this path at several thread counts.
// lint:allow(panic-path): fn-scope audit: assignment labels are < k and
// flat buffers are validated to n * dim by validate_flat/validate_weighted
// before any kernel runs, so every centroid and point window stays in
// bounds; exemplar chain: clustering::kmeans::KMeans::fit_from_flat ->
// clustering::kmeans::debug_assert_partition
fn debug_assert_partition(result: &KMeansResult, n: usize, k: usize) {
    if !cfg!(debug_assertions) {
        return; // hot path: the checks below must cost nothing in release
    }
    debug_assert_eq!(
        result.assignments.len(),
        n,
        "every point must receive exactly one cluster label"
    );
    debug_assert!(
        result.centroids.len() >= k.min(n),
        "centroid count {} below expected {}",
        result.centroids.len(),
        k.min(n)
    );
    let mut counts = vec![0usize; result.centroids.len()];
    for (i, &label) in result.assignments.iter().enumerate() {
        debug_assert!(
            label < result.centroids.len(),
            "point {i} assigned to out-of-range cluster {label}"
        );
        if label < counts.len() {
            counts[label] += 1;
        }
    }
    debug_assert_eq!(
        counts.iter().sum::<usize>(),
        n,
        "cluster sizes must sum to the point count (exact partition)"
    );
    debug_assert!(
        result
            .centroids
            .iter()
            .all(|c| c.iter().all(|v| v.is_finite())),
        "k-means centroids must stay finite"
    );
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// Delegates to the workspace-wide scalar reference
/// [`utilcast_linalg::kernels::sq_dist`] (same ascending-index reduction,
/// re-exported here for the clustering API's historical callers).
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    utilcast_linalg::kernels::sq_dist(a, b)
}

/// Returns the index of and squared distance to the nearest centroid.
///
/// # Panics
///
/// Panics if `centroids` is empty.
pub fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    assert!(!centroids.is_empty(), "nearest_centroid requires centroids");
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// Uniform random seeding over the flat point buffer: `k` distinct indices
/// by partial Fisher-Yates, returned as a flat `k * dim` centroid buffer.
// lint:allow(panic-path): fn-scope audit: fit/fit_flat reach the seeding
// only with k < n (k >= n takes the degenerate path) and flat.len() ==
// n * dim (validate_flat), so idx[..k] and every drawn row i < n slice in
// bounds; chain clustering::kmeans::KMeans::fit ->
// clustering::kmeans::KMeans::fit_restarts ->
// clustering::kmeans::KMeans::fit_once -> clustering::kmeans::random_seed
fn random_seed(flat: &[f64], n: usize, dim: usize, k: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    let mut out = Vec::with_capacity(k * dim);
    for &i in &idx[..k] {
        out.extend_from_slice(&flat[i * dim..(i + 1) * dim]);
    }
    out
}

/// K-means++ seeding over the flat point buffer, returned as a flat
/// `k * dim` centroid buffer. Draws the same RNG sequence as the nested
/// reference implementation.
// lint:allow(panic-path): fn-scope audit: flat.len() == n * dim
// (validate_flat) and every row index drawn is < n (gen_range(0..n), or a
// position in the n-long dists), so each pt(i) slice is in bounds; chain
// clustering::kmeans::KMeans::fit -> clustering::kmeans::KMeans::fit_restarts
// -> clustering::kmeans::KMeans::fit_once ->
// clustering::kmeans::plus_plus_seed
fn plus_plus_seed(flat: &[f64], n: usize, dim: usize, k: usize, rng: &mut StdRng) -> Vec<f64> {
    let pt = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(pt(first));
    let mut dists: Vec<f64> = (0..n).map(|i| sq_dist(pt(i), pt(first))).collect();
    for _ in 1..k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(pt(next));
        for (i, d) in dists.iter_mut().enumerate() {
            let nd = sq_dist(pt(i), pt(next));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Validates a weighted flat point buffer: non-empty, `k >= 1`, a
/// consistent `dim`, one finite non-negative weight per point, and at
/// least some positive total mass. Returns the point count.
fn validate_weighted(
    flat: &[f64],
    dim: usize,
    weights: &[f64],
    k: usize,
) -> Result<usize, ClusteringError> {
    if flat.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    if k == 0 {
        return Err(ClusteringError::ZeroClusters);
    }
    if dim == 0 || !flat.len().is_multiple_of(dim) {
        return Err(ClusteringError::DimensionMismatch {
            expected: dim,
            index: flat.len().checked_div(dim).unwrap_or(0),
            found: flat.len().checked_rem(dim).unwrap_or(0),
        });
    }
    // lint:allow(panic-path): dim == 0 is rejected by the guard above;
    // chain fit_weighted_flat -> validate_weighted
    let n = flat.len() / dim;
    if weights.len() != n {
        return Err(ClusteringError::InvalidWeights {
            reason: format!("{} weights supplied for {n} points", weights.len()),
        });
    }
    if let Some((i, &w)) = weights
        .iter()
        .enumerate()
        .find(|&(_, &w)| !w.is_finite() || w < 0.0)
    {
        return Err(ClusteringError::InvalidWeights {
            reason: format!("weight {w} at point {i} is not finite and non-negative"),
        });
    }
    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(ClusteringError::InvalidWeights {
            reason: "total weight must be positive".into(),
        });
    }
    Ok(n)
}

/// Deterministic weighted farthest-point ("maxmin") seeding: the first
/// centroid is the heaviest point, each subsequent one the point with the
/// largest weight-scaled squared distance to its nearest chosen centroid.
/// No RNG — the hierarchical merge step must be a pure function of its
/// inputs, and at merge scale (shards × K points) maxmin seeding is both
/// cheap and well-spread. Ties keep the lowest index (`total_cmp` argmax
/// with strict improvement).
// lint:allow(panic-path): fn-scope audit: assignment labels are < k and
// flat buffers are validated to n * dim by validate_flat/validate_weighted
// before any kernel runs, so every centroid and point window stays in
// bounds; exemplar chain: clustering::kmeans::fit_weighted_flat ->
// clustering::kmeans::weighted_maxmin_seed
fn weighted_maxmin_seed(flat: &[f64], n: usize, dim: usize, weights: &[f64], k: usize) -> Vec<f64> {
    let pt = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut centroids = Vec::with_capacity(k * dim);
    let mut first = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        if w.total_cmp(&weights[first]) == std::cmp::Ordering::Greater {
            first = i;
        }
    }
    centroids.extend_from_slice(pt(first));
    let mut dists: Vec<f64> = (0..n).map(|i| sq_dist(pt(i), pt(first))).collect();
    for _ in 1..k {
        let mut next = 0usize;
        let mut best = f64::NEG_INFINITY;
        for (i, &d) in dists.iter().enumerate() {
            let scaled = weights[i] * d;
            if scaled.total_cmp(&best) == std::cmp::Ordering::Greater {
                best = scaled;
                next = i;
            }
        }
        centroids.extend_from_slice(pt(next));
        for (i, d) in dists.iter_mut().enumerate() {
            let nd = sq_dist(pt(i), pt(next));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Weighted Lloyd descent: assignment ignores weights (nearest centroid),
/// the update step computes mass-weighted means `Σ wᵢxᵢ / Σ wᵢ`, and the
/// inertia is `Σ wᵢ‖xᵢ − c_{aᵢ}‖²`. Sequential by design — the merge
/// problem is tiny (shards × K points) — and mirrors [`KMeans::lloyd_flat`]'s
/// structure: partition fixed-point stop, farthest-point reseed of
/// weightless clusters, movement tolerance, final assignment pass.
#[allow(clippy::too_many_arguments)]
// lint:allow(panic-path): fn-scope audit: assignment labels are < k and
// flat buffers are validated to n * dim by validate_flat/validate_weighted
// before any kernel runs, so every centroid and point window stays in
// bounds; exemplar chain: clustering::kmeans::fit_weighted_flat ->
// clustering::kmeans::lloyd_weighted
fn lloyd_weighted(
    flat: &[f64],
    n: usize,
    dim: usize,
    weights: &[f64],
    mut centroids: Vec<f64>,
    k: usize,
    max_iters: usize,
    tol: f64,
) -> KMeansResult {
    let pt = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut assignments = vec![0usize; n];
    let mut prev = vec![usize::MAX; n];
    let mut sums = vec![0.0f64; k * dim];
    let mut mass = vec![0.0f64; k];
    // Assignment scan shared by the iteration loop and the final pass: the
    // running best starts at centroid 0's distance and the rest compare
    // with strict `<`.
    let scan = |centroids: &[f64], assignments: &mut [usize]| {
        for (i, a) in assignments.iter_mut().enumerate() {
            let p = pt(i);
            let mut best = 0usize;
            let mut best_d = sq_dist(p, &centroids[..dim]);
            for (c, centroid) in centroids.chunks_exact(dim).enumerate().skip(1) {
                let d = sq_dist(p, centroid);
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            *a = best;
        }
    };
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        scan(&centroids, &mut assignments);
        // Partition fixed point: the weighted means recompute identically,
        // so nothing can move — stop without the no-op update.
        if iter > 0 && assignments == prev {
            converged = true;
            break;
        }
        prev.copy_from_slice(&assignments);
        sums.fill(0.0);
        mass.fill(0.0);
        for (i, &a) in assignments.iter().enumerate() {
            let w = weights[i];
            mass[a] += w;
            for (s, &v) in sums[a * dim..(a + 1) * dim].iter_mut().zip(pt(i)) {
                *s += w * v;
            }
        }
        let mut movement: f64 = 0.0;
        for c in 0..k {
            if mass[c] <= 0.0 {
                // Empty (or all-weightless) cluster: re-seed at the point
                // with the largest weighted distance to its assigned
                // centroid, keeping the argmax deterministic via
                // `total_cmp`.
                let Some(far) = (0..n).max_by(|&i, &j| {
                    let di = weights[i] * sq_dist(pt(i), &centroids[assignments[i] * dim..][..dim]);
                    let dj = weights[j] * sq_dist(pt(j), &centroids[assignments[j] * dim..][..dim]);
                    di.total_cmp(&dj)
                }) else {
                    continue; // n == 0 cannot reach here (validated)
                };
                movement += sq_dist(&centroids[c * dim..(c + 1) * dim], pt(far));
                centroids[c * dim..(c + 1) * dim].copy_from_slice(pt(far));
                continue;
            }
            let mut delta = 0.0;
            for (coord, s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                let new = s / mass[c];
                delta += (*coord - new) * (*coord - new);
                *coord = new;
            }
            movement += delta;
        }
        if movement <= tol {
            break;
        }
    }
    if !converged {
        scan(&centroids, &mut assignments);
    }
    let mut inertia = 0.0;
    for (i, &a) in assignments.iter().enumerate() {
        inertia += weights[i] * sq_dist(pt(i), &centroids[a * dim..(a + 1) * dim]);
    }
    KMeansResult {
        assignments,
        centroids: unflatten(&centroids, dim),
        inertia,
        iterations,
    }
}

/// Weighted k-means over a flat row-major point buffer: point `i` carries
/// mass `weights[i]`, so a point of weight `w` pulls centroids like `w`
/// coincident unit-weight points. This is the hierarchical controller's
/// global merge primitive — the points are per-shard centroids, the
/// weights their member counts — so it is fully deterministic (no RNG:
/// maxmin seeding, see [`fit_weighted_from_flat`] for the warm-started
/// form) and sequential (the merge problem is `shards × K` points).
///
/// In the `k >= n` degenerate case every point becomes its own centroid,
/// exactly like [`KMeans::fit_flat`].
///
/// # Errors
///
/// Returns the input errors of [`KMeans::fit_flat`], plus
/// [`ClusteringError::InvalidWeights`] when `weights` does not hold one
/// finite non-negative value per point with a positive total.
pub fn fit_weighted_flat(
    flat: &[f64],
    dim: usize,
    weights: &[f64],
    config: &KMeansConfig,
) -> Result<KMeansResult, ClusteringError> {
    let n = validate_weighted(flat, dim, weights, config.k)?;
    if config.k >= n {
        return Ok(degenerate_weighted(flat, n, dim, config.k));
    }
    let init = weighted_maxmin_seed(flat, n, dim, weights, config.k);
    Ok(lloyd_weighted(
        flat,
        n,
        dim,
        weights,
        init,
        config.k,
        config.max_iters,
        config.tol,
    ))
}

/// Warm-started [`fit_weighted_flat`]: runs the weighted Lloyd descent
/// from caller-supplied centroids (e.g. the previous step's merged global
/// centroids) instead of maxmin seeding.
///
/// # Errors
///
/// Returns the same errors as [`fit_weighted_flat`], plus
/// [`ClusteringError::InvalidInit`] when `init` does not contain exactly
/// `k` centroids of dimensionality `dim`.
pub fn fit_weighted_from_flat(
    flat: &[f64],
    dim: usize,
    weights: &[f64],
    init: &[Vec<f64>],
    config: &KMeansConfig,
) -> Result<KMeansResult, ClusteringError> {
    let n = validate_weighted(flat, dim, weights, config.k)?;
    if config.k >= n {
        return Ok(degenerate_weighted(flat, n, dim, config.k));
    }
    if init.len() != config.k {
        return Err(ClusteringError::InvalidInit {
            reason: format!("{} centroids supplied for k = {}", init.len(), config.k),
        });
    }
    if let Some(bad) = init.iter().find(|c| c.len() != dim) {
        return Err(ClusteringError::InvalidInit {
            reason: format!(
                "centroid has dimension {} but points have dimension {dim}",
                bad.len()
            ),
        });
    }
    let init_flat = flatten(init, config.k, dim);
    Ok(lloyd_weighted(
        flat,
        n,
        dim,
        weights,
        init_flat,
        config.k,
        config.max_iters,
        config.tol,
    ))
}

/// The `k >= n` degenerate weighted result — identical in shape to
/// [`KMeans::degenerate_flat`]: every point is its own centroid (weights
/// are irrelevant when nothing is averaged), extras cycle the points.
fn degenerate_weighted(flat: &[f64], n: usize, dim: usize, k: usize) -> KMeansResult {
    KMeansResult {
        assignments: (0..n).collect(),
        centroids: (0..k)
            // lint:allow(panic-path): validate_weighted rejects empty inputs,
            // so n >= 1, `% n` cannot trap, and the slice stays within the
            // n * dim flat buffer; chain fit_weighted_flat -> degenerate_weighted
            .map(|c| flat[(c % n) * dim..(c % n + 1) * dim].to_vec())
            .collect(),
        inertia: 0.0,
        iterations: 0,
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + i as f64 * 0.01, 0.0]);
        }
        for i in 0..10 {
            pts.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        pts
    }

    fn blob_field(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx = (i % 5) as f64 * 2.0;
                let cy = (i % 3) as f64 * 3.0;
                vec![cx + rng.gen::<f64>() * 0.2, cy + rng.gen::<f64>() * 0.2]
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let res = KMeans::new(KMeansConfig {
            k: 2,
            seed: 42,
            ..Default::default()
        })
        .fit(&two_blobs())
        .unwrap();
        let first = res.assignments[0];
        assert!(res.assignments[..10].iter().all(|&a| a == first));
        assert!(res.assignments[10..].iter().all(|&a| a != first));
        assert!(res.inertia < 0.1);
    }

    #[test]
    fn k_equals_one_gives_mean_centroid() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let res = KMeans::new(KMeansConfig {
            k: 1,
            seed: 0,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert!((res.centroids[0][0] - 2.0).abs() < 1e-9);
        assert!(res.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn k_ge_n_assigns_each_point_its_own_cluster() {
        let pts = vec![vec![1.0], vec![2.0]];
        let res = KMeans::new(KMeansConfig {
            k: 5,
            seed: 0,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(res.assignments, vec![0, 1]);
        assert_eq!(res.centroids.len(), 5);
        assert_eq!(res.inertia, 0.0);
    }

    #[test]
    fn rejects_empty_input() {
        let err = KMeans::new(KMeansConfig::default()).fit(&[]).unwrap_err();
        assert_eq!(err, ClusteringError::EmptyInput);
    }

    #[test]
    fn rejects_zero_k() {
        let err = KMeans::new(KMeansConfig {
            k: 0,
            ..Default::default()
        })
        .fit(&[vec![1.0]])
        .unwrap_err();
        assert_eq!(err, ClusteringError::ZeroClusters);
    }

    #[test]
    fn rejects_ragged_points() {
        let err = KMeans::new(KMeansConfig::default())
            .fit(&[vec![1.0, 2.0], vec![1.0], vec![3.0, 4.0], vec![5.0, 6.0]])
            .unwrap_err();
        assert!(matches!(
            err,
            ClusteringError::DimensionMismatch { index: 1, .. }
        ));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pts = two_blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 123,
            ..Default::default()
        };
        let a = KMeans::new(cfg.clone()).fit(&pts).unwrap();
        let b = KMeans::new(cfg).fit(&pts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let pts = blob_field(600, 11);
        let base = KMeans::new(KMeansConfig {
            k: 8,
            n_init: 4,
            seed: 77,
            threads: 1,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        for threads in [0, 2, 3, 8] {
            let res = KMeans::new(KMeansConfig {
                k: 8,
                n_init: 4,
                seed: 77,
                threads,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap();
            assert_eq!(res, base, "threads = {threads} diverged");
        }
    }

    /// The production fit lands on the clustering of the nested
    /// exact-distance descent: same labels, inertia and centroids to a few
    /// ulps (the inertia goes through the norm identity, and FP tie-breaks
    /// could in theory differ, but not on well-separated data).
    fn assert_agrees_with_exact_descent(pts: &[Vec<f64>], config: KMeansConfig) {
        let exact = oracle::fit_exact(&config, pts);
        let fast = KMeans::new(config).fit(pts).unwrap();
        assert_eq!(exact.assignments, fast.assignments);
        assert!(
            (exact.inertia - fast.inertia).abs() <= 1e-9 * (1.0 + exact.inertia),
            "inertia diverged: {} vs {}",
            exact.inertia,
            fast.inertia
        );
        for (a, b) in exact.centroids.iter().zip(&fast.centroids) {
            assert!(sq_dist(a, b) < 1e-18);
        }
    }

    #[test]
    fn block_scan_fit_agrees_with_exact_descent() {
        assert_agrees_with_exact_descent(
            &blob_field(400, 13),
            KMeansConfig {
                k: 6,
                n_init: 3,
                seed: 17,
                ..Default::default()
            },
        );
    }

    #[test]
    fn scalar_fast_path_agrees_with_exact_descent() {
        // The dim == 1 midpoint-count assignment must land on the same
        // clustering as the naive distance scan.
        let pts: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let band = (i % 7) as f64 / 7.0;
                vec![band + 0.03 * (((i * 37) % 100) as f64 / 100.0 - 0.5)]
            })
            .collect();
        assert_agrees_with_exact_descent(
            &pts,
            KMeansConfig {
                k: 7,
                n_init: 4,
                seed: 23,
                ..Default::default()
            },
        );
    }

    #[test]
    fn scalar_nearest_resolves_ties_to_lowest_index() {
        // Duplicate centroid values: the run's lowest original index wins,
        // at both ends of the sorted order and in the middle.
        let centroids = [0.8, 0.2, 0.8, 0.2, 0.5];
        let mut norms = vec![0.0; centroids.len()];
        refresh_norms(&centroids, 1, &mut norms);
        let mut index = ScalarIndex::default();
        let mut assignments = vec![0usize; 3];
        let mut scores = vec![0.0; 3];
        oracle::assign_step_scalar(
            &[0.1, 0.9, 0.5],
            &centroids,
            &norms,
            &mut index,
            &mut assignments,
            &mut scores,
        );
        // 0.1 -> duplicate 0.2s, index 1; 0.9 -> duplicate 0.8s, index 0;
        // 0.5 -> unique 0.5, index 4.
        assert_eq!(assignments, vec![1, 0, 4]);
        // The blocked count resolves them the same way, in a full block
        // and in the tail.
        let pts: Vec<f64> = [0.1, 0.9, 0.5].repeat(3);
        let mut blocked = vec![usize::MAX; pts.len()];
        assert!(index.label_run(&pts, &mut blocked));
        assert_eq!(blocked, [1, 0, 4].repeat(3));
    }

    #[test]
    fn zero_dimensional_points_dont_panic() {
        let pts = vec![Vec::new(); 5];
        let res = KMeans::new(KMeansConfig {
            k: 2,
            seed: 1,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(res.assignments.len(), 5);
        assert_eq!(res.inertia, 0.0);
    }

    #[test]
    fn zero_dimensional_points_form_the_trivial_partition() {
        let pts = vec![Vec::new(); 5];
        let km = KMeans::new(KMeansConfig {
            k: 2,
            seed: 1,
            ..Default::default()
        });
        let trivial = KMeansResult {
            assignments: vec![0; 5],
            centroids: vec![Vec::new(); 2],
            inertia: 0.0,
            iterations: 0,
        };
        assert_eq!(km.fit(&pts).unwrap(), trivial);
        assert_eq!(
            km.fit_from(&pts, &[Vec::new(), Vec::new()]).unwrap(),
            trivial
        );
        // The initializer is still validated first.
        assert!(matches!(
            km.fit_from(&pts, &[Vec::new()]).unwrap_err(),
            ClusteringError::InvalidInit { .. }
        ));
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let pts = two_blobs();
        let km = KMeans::new(KMeansConfig {
            k: 2,
            seed: 3,
            ..Default::default()
        });
        let cold = km.fit(&pts).unwrap();
        let warm = km.fit_from(&pts, &cold.centroids).unwrap();
        assert_eq!(warm.assignments, cold.assignments);
        assert!(warm.iterations <= 2, "iterations = {}", warm.iterations);
        assert!((warm.inertia - cold.inertia).abs() < 1e-12);
    }

    #[test]
    fn warm_start_is_thread_count_invariant() {
        let pts = blob_field(600, 4);
        let km1 = KMeans::new(KMeansConfig {
            k: 6,
            seed: 5,
            threads: 1,
            ..Default::default()
        });
        let init = km1.fit(&pts).unwrap().centroids;
        let base = km1.fit_from(&pts, &init).unwrap();
        for threads in [2, 8] {
            let km = KMeans::new(KMeansConfig {
                k: 6,
                seed: 5,
                threads,
                ..Default::default()
            });
            assert_eq!(km.fit_from(&pts, &init).unwrap(), base);
        }
    }

    #[test]
    fn warm_start_rejects_malformed_init() {
        let pts = two_blobs();
        let km = KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        });
        assert!(matches!(
            km.fit_from(&pts, &[vec![0.0, 0.0]]).unwrap_err(),
            ClusteringError::InvalidInit { .. }
        ));
        assert!(matches!(
            km.fit_from(&pts, &[vec![0.0], vec![1.0]]).unwrap_err(),
            ClusteringError::InvalidInit { .. }
        ));
    }

    #[test]
    fn warm_start_degenerate_matches_cold() {
        let pts = vec![vec![1.0], vec![2.0]];
        let km = KMeans::new(KMeansConfig {
            k: 5,
            ..Default::default()
        });
        let cold = km.fit(&pts).unwrap();
        // The initializer is irrelevant in the k >= n mode.
        let warm = km
            .fit_from(
                &pts,
                &[vec![0.0], vec![0.0], vec![0.0], vec![0.0], vec![0.0]],
            )
            .unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn identical_points_dont_panic() {
        let pts = vec![vec![1.0, 1.0]; 8];
        let res = KMeans::new(KMeansConfig {
            k: 3,
            seed: 5,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(res.inertia, 0.0);
        assert!(res.assignments.iter().all(|&a| a < 3));
    }

    #[test]
    fn plus_plus_beats_or_matches_random_on_average() {
        // With well-separated blobs and a single restart, k-means++ should
        // find the optimal clustering at least as reliably as random init.
        let pts = two_blobs();
        let mut pp_inertia = 0.0;
        let mut rand_inertia = 0.0;
        for seed in 0..20 {
            let pp = KMeans::new(KMeansConfig {
                k: 2,
                n_init: 1,
                seed,
                plus_plus_init: true,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap();
            let rd = KMeans::new(KMeansConfig {
                k: 2,
                n_init: 1,
                seed,
                plus_plus_init: false,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap();
            pp_inertia += pp.inertia;
            rand_inertia += rd.inertia;
        }
        assert!(pp_inertia <= rand_inertia + 1e-9);
    }

    #[test]
    fn nearest_centroid_finds_minimum() {
        let centroids = vec![vec![0.0], vec![10.0], vec![4.0]];
        let (c, d) = nearest_centroid(&[5.0], &centroids);
        assert_eq!(c, 2);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_ranked_assignments_match_exact_nearest() {
        let pts = blob_field(300, 9);
        let km = KMeans::new(KMeansConfig {
            k: 7,
            seed: 21,
            ..Default::default()
        });
        let res = km.fit(&pts).unwrap();
        // Every reported assignment is at least as close as any exact-scan
        // alternative (ties may legitimately differ between kernels).
        for (p, &a) in pts.iter().zip(&res.assignments) {
            let (_, exact_d) = nearest_centroid(p, &res.centroids);
            assert!(sq_dist(p, &res.centroids[a]) <= exact_d + 1e-9);
        }
    }

    #[test]
    fn fit_flat_is_bit_identical_to_fit() {
        for (pts, k) in [(blob_field(400, 31), 6), (two_blobs(), 2)] {
            let dim = pts[0].len();
            let flat: Vec<f64> = pts.iter().flatten().copied().collect();
            for threads in [1, 4] {
                let km = KMeans::new(KMeansConfig {
                    k,
                    n_init: 3,
                    seed: 19,
                    threads,
                    ..Default::default()
                });
                let nested = km.fit(&pts).unwrap();
                let from_flat = km.fit_flat(&flat, dim).unwrap();
                assert_eq!(nested, from_flat, "threads {threads}");
                let warm_nested = km.fit_from(&pts, &nested.centroids).unwrap();
                let warm_flat = km.fit_from_flat(&flat, dim, &nested.centroids).unwrap();
                assert_eq!(warm_nested, warm_flat);
            }
        }
    }

    #[test]
    fn fit_flat_degenerate_matches_nested() {
        let pts = vec![vec![1.0], vec![2.0]];
        let km = KMeans::new(KMeansConfig {
            k: 5,
            ..Default::default()
        });
        let nested = km.fit(&pts).unwrap();
        assert_eq!(km.fit_flat(&[1.0, 2.0], 1).unwrap(), nested);
        let init = vec![vec![0.0]; 5];
        assert_eq!(km.fit_from_flat(&[1.0, 2.0], 1, &init).unwrap(), nested);
    }

    #[test]
    fn fit_flat_rejects_malformed_buffers() {
        let km = KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        });
        assert_eq!(
            km.fit_flat(&[], 1).unwrap_err(),
            ClusteringError::EmptyInput
        );
        assert!(matches!(
            km.fit_flat(&[1.0, 2.0, 3.0], 2).unwrap_err(),
            ClusteringError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            km.fit_flat(&[1.0, 2.0, 3.0], 0).unwrap_err(),
            ClusteringError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            km.fit_from_flat(&[1.0, 2.0, 3.0], 1, &[vec![0.0]])
                .unwrap_err(),
            ClusteringError::InvalidInit { .. }
        ));
    }

    #[test]
    fn scalar_mode_matches_paper_usage() {
        // The paper clusters scalar per-resource values; verify 1-D input
        // produces sensible groups.
        let pts: Vec<Vec<f64>> = [0.1, 0.12, 0.09, 0.55, 0.57, 0.9, 0.93]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let res = KMeans::new(KMeansConfig {
            k: 3,
            seed: 2,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(res.assignments[0], res.assignments[1]);
        assert_eq!(res.assignments[0], res.assignments[2]);
        assert_eq!(res.assignments[3], res.assignments[4]);
        assert_eq!(res.assignments[5], res.assignments[6]);
    }

    #[test]
    fn weighted_fit_k1_yields_weighted_mean() {
        let flat = [0.0, 1.0, 10.0];
        let weights = [1.0, 1.0, 2.0];
        let cfg = KMeansConfig {
            k: 1,
            ..Default::default()
        };
        let res = fit_weighted_flat(&flat, 1, &weights, &cfg).unwrap();
        // (0 + 1 + 2·10) / 4 = 5.25
        assert!((res.centroids[0][0] - 5.25).abs() < 1e-12);
        assert_eq!(res.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn weighted_fit_approximates_replicated_points() {
        // A point of weight w must act like w coincident unit-weight
        // points: same partition, centroids equal up to rounding (the
        // accumulation order differs: w·x vs x + x + ...).
        let flat = [0.1, 0.2, 0.8, 0.9];
        let weights = [3.0, 1.0, 1.0, 2.0];
        let replicated = [0.1, 0.1, 0.1, 0.2, 0.8, 0.9, 0.9];
        let unit = [1.0; 7];
        let init = vec![vec![0.0], vec![1.0]];
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        let a = fit_weighted_from_flat(&flat, 1, &weights, &init, &cfg).unwrap();
        let b = fit_weighted_from_flat(&replicated, 1, &unit, &init, &cfg).unwrap();
        for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
            assert!((ca[0] - cb[0]).abs() < 1e-12, "{ca:?} vs {cb:?}");
        }
        assert!((a.inertia - b.inertia).abs() < 1e-12);
    }

    #[test]
    fn weighted_fit_is_deterministic() {
        let flat: Vec<f64> = (0..30).map(|i| (i % 7) as f64 * 0.13).collect();
        let weights: Vec<f64> = (0..30).map(|i| 1.0 + (i % 4) as f64).collect();
        let cfg = KMeansConfig {
            k: 4,
            ..Default::default()
        };
        let first = fit_weighted_flat(&flat, 1, &weights, &cfg).unwrap();
        for _ in 0..3 {
            assert_eq!(fit_weighted_flat(&flat, 1, &weights, &cfg).unwrap(), first);
        }
    }

    #[test]
    fn weighted_warm_start_from_solution_converges_immediately() {
        let flat = [0.1, 0.12, 0.8, 0.82];
        let weights = [2.0, 1.0, 1.0, 3.0];
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        let cold = fit_weighted_flat(&flat, 1, &weights, &cfg).unwrap();
        let warm = fit_weighted_from_flat(&flat, 1, &weights, &cold.centroids, &cfg).unwrap();
        assert_eq!(warm.assignments, cold.assignments);
        assert_eq!(warm.centroids, cold.centroids);
        assert!(warm.iterations <= 2, "warm start took {}", warm.iterations);
    }

    #[test]
    fn weighted_fit_tolerates_zero_weight_points() {
        // Zero-weight points are assigned but pull nothing; centroids are
        // determined by the massive points alone.
        let flat = [0.2, 0.5, 0.8];
        let weights = [1.0, 0.0, 1.0];
        let init = vec![vec![0.0], vec![1.0]];
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        let res = fit_weighted_from_flat(&flat, 1, &weights, &init, &cfg).unwrap();
        let mut got = vec![res.centroids[0][0], res.centroids[1][0]];
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![0.2, 0.8]);
        assert_eq!(res.assignments.len(), 3);
    }

    #[test]
    fn weighted_fit_degenerate_matches_flat_shape() {
        let flat = [0.3, 0.7];
        let weights = [5.0, 1.0];
        let cfg = KMeansConfig {
            k: 4,
            ..Default::default()
        };
        let res = fit_weighted_flat(&flat, 1, &weights, &cfg).unwrap();
        assert_eq!(res.assignments, vec![0, 1]);
        assert_eq!(res.centroids.len(), 4);
        assert_eq!(res.inertia, 0.0);
    }

    #[test]
    fn weighted_fit_rejects_bad_weights() {
        let cfg = KMeansConfig {
            k: 1,
            ..Default::default()
        };
        for weights in [
            vec![1.0],           // wrong length
            vec![1.0, f64::NAN], // non-finite
            vec![1.0, -1.0],     // negative
            vec![0.0, 0.0],      // no mass at all
        ] {
            assert!(matches!(
                fit_weighted_flat(&[0.1, 0.9], 1, &weights, &cfg).unwrap_err(),
                ClusteringError::InvalidWeights { .. }
            ));
        }
        assert_eq!(
            fit_weighted_flat(&[], 1, &[], &cfg).unwrap_err(),
            ClusteringError::EmptyInput
        );
    }
}
