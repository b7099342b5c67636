//! Dynamic cluster construction over time (Sec. V-B).
//!
//! At every step the controller runs k-means on the currently stored
//! measurements, then re-indexes the resulting clusters so they align with
//! the clusters of the previous `M` steps: the similarity `w_{k,j}` counts
//! nodes present in new cluster `k` and in cluster `j` throughout the
//! look-back window (Eq. 10), and the re-indexing permutation maximizes the
//! total similarity via maximum-weight bipartite matching (Eq. 11, solved
//! with the Hungarian algorithm). The centroid of each *re-indexed* cluster
//! then forms one coherent time series suitable for forecasting.
//!
//! # Hierarchical (two-level) mode
//!
//! With [`ComputeOptions::shards`] `> 1` the per-step k-means becomes a
//! two-level pass: nodes are split into deterministic contiguous shards,
//! each shard clusters its own points (fanned out over threads, one
//! derived seed and one warm-centroid set per shard), and the shard
//! centroids — weighted by member counts — feed a small global weighted
//! k-means whose labels every node inherits through its shard centroid.
//! The merged result then flows through the *same* history-based Hungarian
//! re-indexing as the single-level path, so cluster identity (and with it
//! forecaster state) survives re-sharding: the matching is over node-level
//! assignments, which do not care how the partition was computed.

use std::collections::VecDeque;

use serde::{DeError, Deserialize, Serialize};
use utilcast_clustering::hungarian::max_weight_matching_padded;
use utilcast_clustering::kmeans::{
    fit_weighted_flat, fit_weighted_from_flat, KMeans, KMeansConfig, KMeansResult,
};
use utilcast_clustering::parallel::{chunk_len, resolve_threads};
use utilcast_clustering::similarity::{intersection_similarity, jaccard_similarity};
use utilcast_clustering::ClusteringError;
use utilcast_linalg::container::{Reader, Writer};
use utilcast_linalg::Matrix;

use crate::compute::ComputeOptions;

/// Derives shard `shard`'s base seed from the clusterer seed with a
/// SplitMix64-style mix (the same mixer k-means uses for restart seeds),
/// so every shard runs an independent deterministic stream regardless of
/// which thread fits it.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(shard.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which cluster-evolution similarity to use when re-indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimilarityMeasure {
    /// The paper's set-intersection count over `M` history steps (Eq. 10).
    #[default]
    Intersection,
    /// Jaccard index against the previous step only (the Fig. 11 baseline).
    Jaccard,
}

/// Configuration for [`DynamicClusterer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicClustererConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// History look-back `M` for the similarity measure (the paper's
    /// default is 1).
    pub m: usize,
    /// Similarity measure used for re-indexing.
    pub similarity: SimilarityMeasure,
    /// K-means restarts per step.
    pub n_init: usize,
    /// K-means iteration cap per restart.
    pub max_iters: usize,
    /// RNG seed for the k-means seeding (advanced per step).
    pub seed: u64,
    /// Threading, re-seed cadence and sharding of the per-step k-means
    /// (see [`ComputeOptions`]).
    pub compute: ComputeOptions,
}

impl SimilarityMeasure {
    pub(crate) fn encode_into(self, out: &mut Writer) {
        out.tag(match self {
            SimilarityMeasure::Intersection => 0,
            SimilarityMeasure::Jaccard => 1,
        });
    }

    pub(crate) fn decode(input: &mut Reader) -> Result<Self, DeError> {
        match input.tag()? {
            0 => Ok(SimilarityMeasure::Intersection),
            1 => Ok(SimilarityMeasure::Jaccard),
            tag => Err(DeError::new(format!(
                "similarity measure: unknown tag {tag}"
            ))),
        }
    }
}

impl DynamicClustererConfig {
    fn encode_into(&self, out: &mut Writer) {
        out.usize(self.k);
        out.usize(self.m);
        self.similarity.encode_into(out);
        out.usize(self.n_init);
        out.usize(self.max_iters);
        out.u64(self.seed);
        self.compute.encode_into(out);
    }

    fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(DynamicClustererConfig {
            k: input.usize()?,
            m: input.usize()?,
            similarity: SimilarityMeasure::decode(input)?,
            n_init: input.usize()?,
            max_iters: input.usize()?,
            seed: input.u64()?,
            compute: ComputeOptions::decode(input)?,
        })
    }
}

impl Default for DynamicClustererConfig {
    fn default() -> Self {
        DynamicClustererConfig {
            k: 3,
            m: 1,
            similarity: SimilarityMeasure::Intersection,
            n_init: 2,
            max_iters: 50,
            seed: 0,
            compute: ComputeOptions::default(),
        }
    }
}

/// The re-indexed clustering produced at one time step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterStep {
    /// Final cluster index of each node (stable across steps).
    pub assignments: Vec<usize>,
    /// Centroid of each final cluster index.
    pub centroids: Vec<Vec<f64>>,
    /// K-means inertia (sum of squared distances) of the step.
    pub inertia: f64,
}

/// Online dynamic clusterer that keeps cluster indices stable over time.
///
/// # Example
///
/// ```
/// use utilcast_core::cluster::{DynamicClusterer, DynamicClustererConfig};
///
/// let mut dc = DynamicClusterer::new(DynamicClustererConfig { k: 2, ..Default::default() });
/// // Two stable groups of scalar measurements.
/// let low_high = |a: f64, b: f64| vec![vec![a], vec![a + 0.01], vec![b], vec![b + 0.01]];
/// let s1 = dc.step(&low_high(0.1, 0.9))?;
/// let s2 = dc.step(&low_high(0.12, 0.88))?;
/// // Node 0 keeps the same (re-indexed) cluster label across steps.
/// assert_eq!(s1.assignments[0], s2.assignments[0]);
/// # Ok::<(), utilcast_clustering::ClusteringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicClusterer {
    config: DynamicClustererConfig,
    /// Recent final assignments, most recent first; bounded by `m`.
    history: VecDeque<Vec<usize>>,
    /// The previous step's matched centroids, the warm-start initializer
    /// of every step that is not a cold re-seed.
    warm_centroids: Option<Vec<Vec<f64>>>,
    /// Per-shard local centroids from the previous hierarchical step
    /// (pre-merge), used to warm-start each shard's fit when
    /// [`ComputeOptions::shards`] `> 1`. Empty outside hierarchical mode;
    /// entries that no longer match the shard shape are ignored.
    shard_warm: Vec<Vec<Vec<f64>>>,
    /// Time step counter.
    t: usize,
    /// The warm scalar refit's k-means, whose `k`-long scratch persists
    /// across steps. Derived, like every field below: never checkpointed.
    km: KMeans,
    /// This step's k-means result, re-indexed in place by
    /// [`DynamicClusterer::reindex`]: after a step its labels are
    /// `history[0]` and its centroids `warm_centroids`, so the next warm
    /// scalar refit starts from them as its label guesses (empty after a
    /// restore, whose first step therefore counts every point).
    fit: KMeansResult,
    /// Whether every `history` row holds labels below `k`: true for rows
    /// this clusterer wrote, false after a restore until a validating
    /// similarity pass has read them.
    trusted: bool,
    /// Eq. 10 scratch: the interleaved co-occurrence count lanes and the
    /// similarity matrix they sum into.
    counts: Vec<usize>,
    similarity: Matrix,
}

/// Interleaved count tables of the Eq. 10 co-occurrence pass: consecutive
/// nodes add into different tables, so two nodes of the same (new,
/// previous) cluster pair do not wait on each other's store. Only while
/// the tables stay small; past that one table is used.
const COUNT_LANES: usize = 4;
const MAX_LANED_CELLS: usize = 1024;

/// The stored warm centroids when this step may start from them: not on a
/// cold re-seed, and only while they still match the data's `k` and
/// dimension.
fn usable_warm(
    warm: &Option<Vec<Vec<f64>>>,
    k: usize,
    dim: usize,
    cold: bool,
) -> Option<&Vec<Vec<f64>>> {
    warm.as_ref()
        .filter(|init| !cold && init.len() == k && init.iter().all(|c| c.len() == dim))
}

/// An empty k-means result, the buffer the first step fills.
fn empty_fit() -> KMeansResult {
    KMeansResult {
        assignments: Vec::new(),
        centroids: Vec::new(),
        inertia: 0.0,
        iterations: 0,
    }
}

/// Whether the identity is the unique maximum-weight matching of the
/// square `w`: every row's diagonal entry strictly exceeds every other
/// entry of its row. Then the identity's total is the sum of the row
/// maxima, which bounds every matching's total, and any other permutation
/// takes an off-diagonal entry in some row, strictly below that row's
/// maximum, so its total is strictly smaller. The Hungarian solver,
/// exact on the integer counts of Eq. 10, must return that optimum.
// lint:allow(panic-path): fn-scope audit: the matrix is checked non-empty
// and square first, so row r of its row-major data is n long and row[r] is
// inside it; exemplar chain: core::cluster::DynamicClusterer::step ->
// core::cluster::DynamicClusterer::reindex ->
// core::cluster::DynamicClusterer::similarity ->
// core::cluster::identity_certified
fn identity_certified(w: &Matrix) -> bool {
    let n = w.nrows();
    n > 0
        && w.ncols() == n
        && w.as_slice().chunks_exact(n).enumerate().all(|(r, row)| {
            let diagonal = row[r];
            row.iter().enumerate().all(|(c, &v)| c == r || diagonal > v)
        })
}

/// Eq. 10 over labels known to be below `ks` and rows known to be `n`
/// long (see [`utilcast_clustering::similarity::intersection_similarity`],
/// whose matrix this is): node `i` adds one to cell `(new[i], window[0][i])`
/// when it sat in that cluster through the whole window. The counts go
/// into [`COUNT_LANES`] interleaved integer tables and are summed once into
/// `w`, reusing `w`'s storage.
// lint:allow(panic-path): fn-scope audit: every label is below ks (the
// caller's trusted/validated precondition) and every row is new.len()
// long, so each cell index r * ks + c is below cells and each lane offset
// below lanes * cells; exemplar chain: core::cluster::DynamicClusterer::step
// -> core::cluster::DynamicClusterer::reindex ->
// core::cluster::DynamicClusterer::similarity ->
// core::cluster::intersection_counts
fn intersection_counts<'a>(
    new: &[usize],
    mut window: impl Iterator<Item = &'a Vec<usize>> + Clone,
    ks: usize,
    lanes_buf: &mut Vec<usize>,
    w: &mut Matrix,
) {
    let cells = ks * ks;
    let lanes = if cells <= MAX_LANED_CELLS {
        COUNT_LANES
    } else {
        1
    };
    lanes_buf.clear();
    lanes_buf.resize(lanes * cells, 0);
    if let Some(first) = window.next() {
        if lanes == COUNT_LANES && window.clone().next().is_none() {
            // M = 1: every node counts, four tables side by side.
            let (l0, tail) = lanes_buf.split_at_mut(cells);
            let (l1, tail) = tail.split_at_mut(cells);
            let (l2, l3) = tail.split_at_mut(cells);
            let mut rows = new.chunks_exact(COUNT_LANES);
            let mut cols = first.chunks_exact(COUNT_LANES);
            for (r, c) in (&mut rows).zip(&mut cols) {
                l0[r[0] * ks + c[0]] += 1;
                l1[r[1] * ks + c[1]] += 1;
                l2[r[2] * ks + c[2]] += 1;
                l3[r[3] * ks + c[3]] += 1;
            }
            for (&r, &c) in rows.remainder().iter().zip(cols.remainder()) {
                l0[r * ks + c] += 1;
            }
        } else {
            for (i, (&row, &col)) in new.iter().zip(first).enumerate() {
                let stayed = window.clone().all(|h| h[i] == col);
                lanes_buf[(i % lanes) * cells + row * ks + col] += usize::from(stayed);
            }
        }
    }
    let mut data = std::mem::replace(w, Matrix::zeros(0, 0)).into_vec();
    data.clear();
    data.extend((0..cells).map(|cell| {
        let total: usize = (0..lanes).map(|lane| lanes_buf[lane * cells + cell]).sum();
        total as f64
    }));
    *w = Matrix::from_vec(ks, ks, data);
}

impl DynamicClusterer {
    /// Creates a clusterer with empty history.
    pub fn new(config: DynamicClustererConfig) -> Self {
        DynamicClusterer {
            // The step's k-means configuration; its per-step seed is
            // only read by a cold fit, which builds its own instance.
            km: KMeans::new(KMeansConfig {
                k: config.k,
                max_iters: config.max_iters,
                n_init: config.n_init,
                seed: config.seed,
                threads: config.compute.threads,
                ..Default::default()
            }),
            config,
            history: VecDeque::new(),
            warm_centroids: None,
            shard_warm: Vec::new(),
            t: 0,
            fit: empty_fit(),
            trusted: true,
            counts: Vec::new(),
            similarity: Matrix::zeros(0, 0),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DynamicClustererConfig {
        &self.config
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Processes one time step of stored measurements (`points[i]` is the
    /// feature vector of node `i` — a scalar slice in the paper's default
    /// per-resource mode, or a longer vector in joint/windowed modes).
    ///
    /// # Errors
    ///
    /// Propagates [`ClusteringError`] from k-means (empty input, ragged
    /// dimensions, `k == 0`).
    pub fn step(&mut self, points: &[Vec<f64>]) -> Result<ClusterStep, ClusteringError> {
        let dim = points.first().map(|p| p.len()).unwrap_or(0);
        if self.config.compute.shards > 1 && dim > 0 {
            // Hierarchical mode is defined over the flat layout; validate
            // and flatten here so both entry points share one kernel.
            if let Some((i, bad)) = points.iter().enumerate().find(|(_, p)| p.len() != dim) {
                return Err(ClusteringError::DimensionMismatch {
                    expected: dim,
                    index: i,
                    found: bad.len(),
                });
            }
            let mut flat = Vec::with_capacity(points.len() * dim);
            for p in points {
                flat.extend_from_slice(p);
            }
            let result = self.hierarchical_fit(&flat, dim)?;
            return self.finish(result);
        }
        let (km, warm_init) = self.prepare(dim);
        let result = match warm_init {
            Some(init) => km.fit_from(points, init)?,
            None => km.fit(points)?,
        };
        self.finish(result)
    }

    /// [`DynamicClusterer::step`] over a contiguous row-major point buffer
    /// (`n * dim` values) — the collection plane's flat ingest path hands
    /// the controller's stored vector straight in here, with no per-tick
    /// `Vec<Vec<f64>>` materialization. Bit-identical to
    /// [`DynamicClusterer::step`] on the equivalent nested points (the
    /// underlying flat k-means entry points keep that contract).
    ///
    /// # Errors
    ///
    /// Propagates [`ClusteringError`] from k-means (empty buffer,
    /// `dim == 0` or a length not a multiple of `dim`, `k == 0`).
    pub fn step_flat(&mut self, flat: &[f64], dim: usize) -> Result<ClusterStep, ClusteringError> {
        self.advance_flat(flat, dim)?;
        Ok(self.current())
    }

    /// [`DynamicClusterer::step_flat`] without the owned result: the step
    /// is left in [`DynamicClusterer::labels`] and
    /// [`DynamicClusterer::centroids`]. A warm single-level scalar step
    /// refits the previous step's result in place
    /// ([`KMeans::refit_scalar`], its labels the first scan's guesses), so
    /// in steady state it allocates nothing.
    pub(crate) fn advance_flat(&mut self, flat: &[f64], dim: usize) -> Result<(), ClusteringError> {
        if self.config.compute.shards > 1 {
            self.fit = self.hierarchical_fit(flat, dim)?;
            return self.reindex();
        }
        let warm = usable_warm(&self.warm_centroids, self.config.k, dim, self.cold_due());
        match warm {
            Some(init) if dim == 1 => self.km.refit_scalar(flat, init, &mut self.fit)?,
            _ => {
                let (km, warm_init) = self.prepare(dim);
                self.fit = match warm_init {
                    Some(init) => km.fit_from_flat(flat, dim, init)?,
                    None => km.fit_flat(flat, dim)?,
                };
            }
        }
        self.reindex()
    }

    /// The last step's re-indexed labels (empty before the first step).
    pub(crate) fn labels(&self) -> &[usize] {
        &self.fit.assignments
    }

    /// The last step's re-indexed centroids (empty before the first step).
    pub(crate) fn centroids(&self) -> &[Vec<f64>] {
        &self.fit.centroids
    }

    /// The last step as an owned [`ClusterStep`].
    fn current(&self) -> ClusterStep {
        ClusterStep {
            assignments: self.fit.assignments.clone(),
            centroids: self.fit.centroids.clone(),
            inertia: self.fit.inertia,
        }
    }

    /// The two-level clustering pass (see module docs): per-shard fits
    /// fanned out over threads, then a weighted global merge over the
    /// shard centroids. Returns a node-level [`KMeansResult`] shaped
    /// exactly like the single-level fit so [`DynamicClusterer::finish`]
    /// needs no hierarchical awareness: `assignments[i]` is node `i`'s
    /// merged global label, `centroids` are the `k` merged centroids, and
    /// `inertia` decomposes as `Σ shard inertias + merge inertia` (each
    /// node's distance to its shard centroid plus the weighted distance of
    /// that centroid to its global one).
    ///
    /// Determinism: shard bounds, per-shard seeds ([`shard_seed`]), and
    /// the merge are all pure functions of the inputs and `t`; the thread
    /// fan-out writes into per-shard slots and the reduction walks them in
    /// shard order, so results are bit-identical at any thread count.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::cluster::DynamicClusterer::step ->
    // core::cluster::DynamicClusterer::hierarchical_fit
    fn hierarchical_fit(
        &mut self,
        flat: &[f64],
        dim: usize,
    ) -> Result<KMeansResult, ClusteringError> {
        if flat.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        let k = self.config.k;
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
        // chain DynamicClusterer::step -> hierarchical_fit
        let n = flat.len() / dim;
        let compute = self.config.compute;
        // Never more shards than nodes; a tiny population degrades to
        // fewer (possibly single-node) shards rather than empty ones.
        let shards = compute.shards.min(n);
        let warm_ok = !self.cold_due();
        // Deterministic contiguous partition: shard `s` owns nodes
        // [s*n/shards, (s+1)*n/shards) — balanced to within one node and
        // independent of thread count.
        // lint:allow(panic-path): bounds is only invoked for s in 0..shards,
        // so the divisor is nonzero at every call site; chain
        // DynamicClusterer::step -> hierarchical_fit
        let bounds = |s: usize| (s * n / shards, (s + 1) * n / shards);

        let fit_shard = |s: usize| -> Result<KMeansResult, ClusteringError> {
            let (lo, hi) = bounds(s);
            let shard_flat = &flat[lo * dim..hi * dim];
            let shard_k = k.min(hi - lo);
            let warm = if warm_ok {
                self.shard_warm
                    .get(s)
                    .filter(|init| init.len() == shard_k && init.iter().all(|c| c.len() == dim))
            } else {
                None
            };
            let km = KMeans::new(KMeansConfig {
                k: shard_k,
                max_iters: self.config.max_iters,
                n_init: self.config.n_init,
                seed: shard_seed(self.config.seed, s as u64).wrapping_add(self.t as u64),
                threads: 1,
                ..Default::default()
            });
            match warm {
                Some(init) => km.fit_from_flat(shard_flat, dim, init),
                None => km.fit_flat(shard_flat, dim),
            }
        };

        // Fan the shard fits out over threads: each worker owns a
        // contiguous run of result slots, and the reduction below walks
        // the slots in shard order regardless of completion order.
        let workers = resolve_threads(compute.threads).min(shards);
        let mut slots: Vec<Option<Result<KMeansResult, ClusteringError>>> =
            (0..shards).map(|_| None).collect();
        if workers > 1 {
            let chunk = chunk_len(shards, workers);
            std::thread::scope(|scope| {
                for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                    let fit_shard = &fit_shard;
                    scope.spawn(move || {
                        for (i, slot) in slot_chunk.iter_mut().enumerate() {
                            *slot = Some(fit_shard(w * chunk + i));
                        }
                    });
                }
            });
        } else {
            for (s, slot) in slots.iter_mut().enumerate() {
                *slot = Some(fit_shard(s));
            }
        }
        let mut shard_results: Vec<KMeansResult> = Vec::with_capacity(shards);
        for (s, slot) in slots.into_iter().enumerate() {
            let result = match slot {
                Some(r) => r?,
                // A slot can only stay empty if a worker died before
                // reaching it; recompute inline rather than panic.
                None => fit_shard(s)?,
            };
            shard_results.push(result);
        }

        // Gather the merge inputs in canonical shard order: every shard
        // centroid becomes one weighted point (weight = member count).
        let mut merged_flat: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::with_capacity(shards);
        let mut shard_inertia = 0.0;
        let mut iterations = 0usize;
        for result in &shard_results {
            offsets.push(weights.len());
            let mut counts = vec![0usize; result.centroids.len()];
            for &a in &result.assignments {
                counts[a] += 1;
            }
            for (centroid, &count) in result.centroids.iter().zip(counts.iter()) {
                merged_flat.extend_from_slice(centroid);
                weights.push(count as f64);
            }
            shard_inertia += result.inertia;
            iterations = iterations.max(result.iterations);
        }

        // Small global merge: weighted k-means over `Σ min(k, |shard|)`
        // centroid points, warm-started from the previous step's matched
        // global centroids when available (keeps the merged centroids —
        // and through them the labels — temporally continuous).
        let merge_config = KMeansConfig {
            k,
            max_iters: self.config.max_iters,
            seed: self.config.seed.wrapping_add(self.t as u64),
            ..Default::default()
        };
        let global_warm = if warm_ok {
            self.warm_centroids
                .as_ref()
                .filter(|init| init.len() == k && init.iter().all(|c| c.len() == dim))
        } else {
            None
        };
        let merge = match global_warm {
            Some(init) => fit_weighted_from_flat(&merged_flat, dim, &weights, init, &merge_config)?,
            None => fit_weighted_flat(&merged_flat, dim, &weights, &merge_config)?,
        };

        // Every node inherits the merge label of its shard centroid.
        let mut assignments = vec![0usize; n];
        for (s, result) in shard_results.iter().enumerate() {
            let (lo, _) = bounds(s);
            for (i, &a) in result.assignments.iter().enumerate() {
                assignments[lo + i] = merge.assignments[offsets[s] + a];
            }
        }
        self.shard_warm = shard_results.into_iter().map(|r| r.centroids).collect();
        Ok(KMeansResult {
            assignments,
            centroids: merge.centroids,
            inertia: shard_inertia + merge.inertia,
            iterations: iterations.max(merge.iterations),
        })
    }

    /// Whether this step is a periodic cold re-seed.
    fn cold_due(&self) -> bool {
        let every = self.config.compute.cold_reseed_every;
        every > 0 && self.t.is_multiple_of(every)
    }

    /// Builds this step's k-means instance and selects the warm-start
    /// initializer: the previous step's matched centroids when usable;
    /// `None` on the first step, on the periodic cold re-seed, or whenever
    /// the stored centroids no longer match the data (k or dimension
    /// changed).
    fn prepare(&self, dim: usize) -> (KMeans, Option<&Vec<Vec<f64>>>) {
        let k = self.config.k;
        let compute = self.config.compute;
        let km = KMeans::new(KMeansConfig {
            k,
            max_iters: self.config.max_iters,
            n_init: self.config.n_init,
            seed: self.config.seed.wrapping_add(self.t as u64),
            threads: compute.threads,
            ..Default::default()
        });
        let warm_init = usable_warm(&self.warm_centroids, k, dim, self.cold_due());
        (km, warm_init)
    }

    /// Re-indexes one k-means result against the assignment history and
    /// advances the clusterer state — the shared back half of
    /// [`DynamicClusterer::step`] and [`DynamicClusterer::step_flat`].
    fn finish(&mut self, result: KMeansResult) -> Result<ClusterStep, ClusteringError> {
        self.fit = result;
        self.reindex()?;
        Ok(self.current())
    }

    /// Re-indexes `fit` in place against the assignment history (Eq. 10,
    /// Eq. 11) and advances the clusterer state. The matching is skipped
    /// when [`identity_certified`] shows it must return the identity; the
    /// history row falling out of the window and the warm centroids are
    /// overwritten in place.
    // lint:allow(panic-path): fn-scope audit: fit labels are below the
    // label space the matching spans (k-means labels are < k, and the
    // matching of a square label_space matrix maps into it); exemplar
    // chain: core::cluster::DynamicClusterer::step ->
    // core::cluster::DynamicClusterer::reindex
    fn reindex(&mut self) -> Result<(), ClusteringError> {
        let k = self.config.k;
        self.t += 1;

        // Effective number of cluster labels: k-means may return fewer
        // centroids only in the k >= n degenerate case (it pads); the label
        // space is always `max(k, n)`-bounded but we keep exactly k slots
        // when k <= n, else n points map identically.
        let label_space = self.fit.centroids.len().max(k);

        if !self.history.is_empty() && !self.similarity(label_space)? {
            let matching = max_weight_matching_padded(&self.similarity);
            // matching.assignment[kmeans_label] = final label.
            for a in &mut self.fit.assignments {
                *a = matching.assignment[*a];
            }
            let by_km_label = std::mem::take(&mut self.fit.centroids);
            let mut centroids = vec![Vec::new(); by_km_label.len()];
            for (km_label, centroid) in by_km_label.into_iter().enumerate() {
                let final_label = matching.assignment[km_label];
                if final_label < centroids.len() {
                    centroids[final_label] = centroid;
                }
            }
            self.fit.centroids = centroids;
        }

        // Runtime invariant (paper Sec. V-B): the re-indexed centroids feed
        // the per-cluster forecasters, so a non-finite coordinate here
        // would poison every later forecast for that persistent label. The
        // simnet determinism suite drives this across thread counts.
        debug_assert!(
            self.fit
                .centroids
                .iter()
                .flat_map(|c| c.iter())
                .all(|v| v.is_finite()),
            "matched centroids must stay finite after re-indexing"
        );
        let window = self.config.m.max(1);
        let mut row = if self.history.len() >= window {
            self.history.pop_back().unwrap_or_default()
        } else {
            Vec::new()
        };
        row.clone_from(&self.fit.assignments);
        self.history.push_front(row);
        self.history.truncate(window);
        match &mut self.warm_centroids {
            Some(warm) => warm.clone_from(&self.fit.centroids),
            None => self.warm_centroids = Some(self.fit.centroids.clone()),
        }
        Ok(())
    }

    /// Fills `similarity` with this step's `label_space`-square similarity
    /// matrix against the history and returns whether the identity is
    /// certified to be its matching (intersection counts only: the Jaccard
    /// ratios go to the solver as they are). Rows this clusterer wrote go
    /// through [`intersection_counts`]; restored rows are read once through
    /// the validating [`intersection_similarity`], which reports a
    /// malformed row as an error.
    fn similarity(&mut self, label_space: usize) -> Result<bool, ClusteringError> {
        let new = &self.fit.assignments;
        let m = self.config.m;
        let hist_refs = || self.history.iter().map(Vec::as_slice).collect::<Vec<_>>();
        match self.config.similarity {
            SimilarityMeasure::Intersection => {
                let window = self.history.iter().take(m);
                if self.trusted && window.clone().all(|h| h.len() == new.len()) {
                    intersection_counts(
                        new,
                        window,
                        label_space,
                        &mut self.counts,
                        &mut self.similarity,
                    );
                } else {
                    self.similarity = intersection_similarity(new, &hist_refs(), m, label_space)?;
                    self.trusted = true;
                }
                Ok(identity_certified(&self.similarity))
            }
            SimilarityMeasure::Jaccard => {
                let prev = self.history.front().map(Vec::as_slice).unwrap_or_default();
                self.similarity = jaccard_similarity(new, prev, label_space)?;
                Ok(false)
            }
        }
    }

    /// Clears the assignment history (e.g. when the node population
    /// changes).
    pub fn reset(&mut self) {
        self.history.clear();
        self.warm_centroids = None;
        self.shard_warm.clear();
        self.t = 0;
        self.trusted = true;
    }

    /// Captures the full clusterer state for checkpointing.
    pub fn snapshot(&self) -> ClustererSnapshot {
        ClustererSnapshot {
            config: self.config.clone(),
            history: self.history.iter().cloned().collect(),
            warm_centroids: self.warm_centroids.clone(),
            shard_warm: self.shard_warm.clone(),
            t: self.t,
        }
    }

    /// Rebuilds a clusterer from a snapshot; the restored instance produces
    /// bit-identical steps to the original from the snapshot point on
    /// (k-means seeding is a pure function of `seed` and `t`, and the
    /// warm-start centroids travel with the snapshot).
    pub fn restore(snapshot: ClustererSnapshot) -> Self {
        let mut restored = DynamicClusterer::new(snapshot.config);
        restored.history = snapshot.history.into();
        restored.warm_centroids = snapshot.warm_centroids;
        restored.shard_warm = snapshot.shard_warm;
        restored.t = snapshot.t;
        restored.trusted = restored.history.is_empty();
        restored
    }
}

/// Serializable state of a [`DynamicClusterer`] (see
/// [`DynamicClusterer::snapshot`]). `history` is ordered most recent first,
/// matching the clusterer's internal deque.
#[derive(Debug, Clone, PartialEq)]
pub struct ClustererSnapshot {
    /// The clusterer configuration.
    pub config: DynamicClustererConfig,
    /// Recent final assignments, most recent first; bounded by `m`.
    pub history: Vec<Vec<usize>>,
    /// The previous step's matched centroids (warm-start initializer), if
    /// any step has run.
    pub warm_centroids: Option<Vec<Vec<f64>>>,
    /// Per-shard local centroids from the previous hierarchical step
    /// (pre-merge); empty outside hierarchical mode, and a shard without
    /// an entry cold-starts its first post-restore fit.
    pub shard_warm: Vec<Vec<Vec<f64>>>,
    /// Time step counter.
    pub t: usize,
}

impl ClustererSnapshot {
    pub(crate) fn encode_into(&self, out: &mut Writer) {
        self.config.encode_into(out);
        out.seq(&self.history, |out, row| out.labels(row));
        out.option(self.warm_centroids.as_ref(), |out, centroids| {
            out.seq(centroids, |out, c| out.f64s(c));
        });
        out.seq(&self.shard_warm, |out, shard| {
            out.seq(shard, |out, c| out.f64s(c));
        });
        out.usize(self.t);
    }

    pub(crate) fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ClustererSnapshot {
            config: DynamicClustererConfig::decode(input)?,
            history: input.seq(Reader::labels)?,
            warm_centroids: input.option(|input| input.seq(Reader::f64s))?,
            shard_warm: input.seq(|input| input.seq(Reader::f64s))?,
            t: input.usize()?,
        })
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn two_groups(a: f64, b: f64) -> Vec<Vec<f64>> {
        vec![
            vec![a],
            vec![a + 0.01],
            vec![a - 0.01],
            vec![b],
            vec![b + 0.01],
            vec![b - 0.01],
        ]
    }

    #[test]
    fn labels_stay_stable_across_steps() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            ..Default::default()
        });
        let s1 = dc.step(&two_groups(0.2, 0.8)).unwrap();
        // Run many steps with slowly drifting values; labels must not flip.
        let mut prev = s1.assignments.clone();
        for i in 1..30 {
            let drift = i as f64 * 0.002;
            let s = dc.step(&two_groups(0.2 + drift, 0.8 - drift)).unwrap();
            assert_eq!(s.assignments, prev, "labels flipped at step {i}");
            prev = s.assignments;
        }
    }

    #[test]
    fn centroids_follow_their_cluster() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            ..Default::default()
        });
        let s1 = dc.step(&two_groups(0.2, 0.8)).unwrap();
        let low_label = s1.assignments[0];
        let s2 = dc.step(&two_groups(0.3, 0.7)).unwrap();
        // The low group's centroid (label preserved) moved to ~0.3.
        assert!((s2.centroids[low_label][0] - 0.3).abs() < 0.02);
    }

    #[test]
    fn node_migration_updates_assignment_but_not_labels() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            ..Default::default()
        });
        let s1 = dc.step(&two_groups(0.2, 0.8)).unwrap();
        let low_label = s1.assignments[0];
        let high_label = s1.assignments[3];
        // Node 2 jumps from the low group to the high group.
        let points = vec![
            vec![0.2],
            vec![0.21],
            vec![0.79], // migrated
            vec![0.8],
            vec![0.81],
            vec![0.79],
        ];
        let s2 = dc.step(&points).unwrap();
        assert_eq!(s2.assignments[0], low_label);
        assert_eq!(
            s2.assignments[2], high_label,
            "migrated node joins high cluster"
        );
        assert_eq!(s2.assignments[3], high_label);
    }

    #[test]
    fn jaccard_mode_also_keeps_labels() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            similarity: SimilarityMeasure::Jaccard,
            ..Default::default()
        });
        let s1 = dc.step(&two_groups(0.1, 0.9)).unwrap();
        let s2 = dc.step(&two_groups(0.12, 0.88)).unwrap();
        assert_eq!(s1.assignments, s2.assignments);
    }

    #[test]
    fn m_greater_than_one_uses_deeper_history() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            m: 3,
            ..Default::default()
        });
        for _ in 0..5 {
            dc.step(&two_groups(0.2, 0.8)).unwrap();
        }
        // History is bounded by m.
        assert_eq!(dc.history.len(), 3);
    }

    #[test]
    fn reset_clears_state() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig::default());
        dc.step(&two_groups(0.1, 0.9)).unwrap();
        assert_eq!(dc.steps(), 1);
        dc.reset();
        assert_eq!(dc.steps(), 0);
        assert!(dc.history.is_empty());
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            m: 3,
            ..Default::default()
        });
        for i in 0..5 {
            dc.step(&two_groups(0.2 + 0.01 * i as f64, 0.8)).unwrap();
        }
        let mut restored = DynamicClusterer::restore(dc.snapshot());
        for i in 5..12 {
            let a = dc.step(&two_groups(0.2 + 0.01 * i as f64, 0.8)).unwrap();
            let b = restored
                .step(&two_groups(0.2 + 0.01 * i as f64, 0.8))
                .unwrap();
            assert_eq!(a, b, "diverged at step {i}");
        }
        assert_eq!(dc.steps(), restored.steps());
    }

    #[test]
    fn snapshot_restore_replays_across_cold_reseed_boundary() {
        // A cold re-seed every 4 steps must replay identically after
        // restoring from a snapshot taken mid-cycle.
        let config = DynamicClustererConfig {
            k: 2,
            compute: ComputeOptions {
                cold_reseed_every: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut dc = DynamicClusterer::new(config);
        for i in 0..3 {
            dc.step(&two_groups(0.2 + 0.01 * i as f64, 0.8)).unwrap();
        }
        let mut restored = DynamicClusterer::restore(dc.snapshot());
        for i in 3..10 {
            let a = dc.step(&two_groups(0.2 + 0.01 * i as f64, 0.8)).unwrap();
            let b = restored
                .step(&two_groups(0.2 + 0.01 * i as f64, 0.8))
                .unwrap();
            assert_eq!(a, b, "diverged at step {i}");
        }
    }

    #[test]
    fn warm_start_survives_dimension_change() {
        // If the feature dimension changes between steps (e.g. switching
        // from scalar to joint-vector mode), the stored warm centroids are
        // unusable and the step must fall back to a cold fit, not error.
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            ..Default::default()
        });
        dc.step(&two_groups(0.2, 0.8)).unwrap();
        let points_2d = vec![
            vec![0.1, 0.2],
            vec![0.12, 0.22],
            vec![0.11, 0.21],
            vec![0.9, 0.8],
            vec![0.88, 0.82],
            vec![0.9, 0.79],
        ];
        let s = dc.step(&points_2d).unwrap();
        assert_eq!(s.centroids[0].len(), 2);
    }

    #[test]
    fn warm_and_cold_agree_on_well_separated_groups() {
        let warm_cfg = DynamicClustererConfig {
            k: 2,
            compute: ComputeOptions {
                cold_reseed_every: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let cold_cfg = DynamicClustererConfig {
            k: 2,
            compute: ComputeOptions {
                cold_reseed_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut warm = DynamicClusterer::new(warm_cfg);
        let mut cold = DynamicClusterer::new(cold_cfg);
        for i in 0..20 {
            let pts = two_groups(0.2 + 0.001 * i as f64, 0.8);
            let a = warm.step(&pts).unwrap();
            let b = cold.step(&pts).unwrap();
            // Same partition (labels may differ per-path but must be
            // internally consistent): compare partition structure.
            let same = |s: &ClusterStep| -> Vec<bool> {
                s.assignments
                    .iter()
                    .map(|&l| l == s.assignments[0])
                    .collect()
            };
            assert_eq!(same(&a), same(&b), "partitions differ at step {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = |threads: usize| DynamicClustererConfig {
            k: 2,
            compute: ComputeOptions {
                threads,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut seq = DynamicClusterer::new(mk(1));
        let mut par = DynamicClusterer::new(mk(8));
        for i in 0..10 {
            let pts = two_groups(0.2 + 0.01 * i as f64, 0.8 - 0.005 * i as f64);
            assert_eq!(seq.step(&pts).unwrap(), par.step(&pts).unwrap());
        }
    }

    #[test]
    fn step_flat_is_bit_identical_to_step() {
        // The flat ingest path must reproduce the nested path exactly,
        // including across warm starts and the cold re-seed boundary.
        let config = DynamicClustererConfig {
            k: 2,
            m: 3,
            compute: ComputeOptions {
                cold_reseed_every: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut nested = DynamicClusterer::new(config.clone());
        let mut flat = DynamicClusterer::new(config);
        for i in 0..12 {
            let pts = two_groups(0.2 + 0.01 * i as f64, 0.8 - 0.005 * i as f64);
            let buf: Vec<f64> = pts.iter().flatten().copied().collect();
            let a = nested.step(&pts).unwrap();
            let b = flat.step_flat(&buf, 1).unwrap();
            assert_eq!(a, b, "diverged at step {i}");
        }
        assert_eq!(nested.snapshot(), flat.snapshot());
    }

    #[test]
    fn empty_input_errors() {
        let mut dc = DynamicClusterer::new(DynamicClustererConfig::default());
        assert!(dc.step(&[]).is_err());
    }

    fn hier_config(shards: usize, threads: usize) -> DynamicClustererConfig {
        DynamicClustererConfig {
            k: 2,
            compute: ComputeOptions {
                shards,
                threads,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Two well-separated groups interleaved so every contiguous shard
    /// sees members of both.
    fn interleaved_groups(n: usize, a: f64, b: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { a } else { b };
                vec![base + 0.001 * (i / 2) as f64]
            })
            .collect()
    }

    #[test]
    fn hierarchical_labels_stay_stable_across_steps() {
        let mut dc = DynamicClusterer::new(hier_config(3, 1));
        let s1 = dc.step(&interleaved_groups(12, 0.2, 0.8)).unwrap();
        let mut prev = s1.assignments.clone();
        for i in 1..20 {
            let drift = i as f64 * 0.002;
            let s = dc
                .step(&interleaved_groups(12, 0.2 + drift, 0.8 - drift))
                .unwrap();
            assert_eq!(s.assignments, prev, "labels flipped at step {i}");
            prev = s.assignments;
        }
    }

    #[test]
    fn hierarchical_partition_matches_flat_on_separated_groups() {
        // On clearly separated data the two-level pass must find the same
        // partition as the single-level one (labels are path-specific).
        let mut flat = DynamicClusterer::new(hier_config(1, 1));
        let mut hier = DynamicClusterer::new(hier_config(4, 1));
        for i in 0..15 {
            let pts = interleaved_groups(16, 0.1 + 0.001 * i as f64, 0.9);
            let a = flat.step(&pts).unwrap();
            let b = hier.step(&pts).unwrap();
            let shape = |s: &ClusterStep| -> Vec<bool> {
                s.assignments
                    .iter()
                    .map(|&l| l == s.assignments[0])
                    .collect()
            };
            assert_eq!(shape(&a), shape(&b), "partitions differ at step {i}");
        }
    }

    #[test]
    fn hierarchical_is_bit_identical_at_any_thread_count() {
        let mut runs: Vec<Vec<ClusterStep>> = Vec::new();
        for threads in [1, 2, 8] {
            let mut dc = DynamicClusterer::new(hier_config(4, threads));
            let mut steps = Vec::new();
            for i in 0..12 {
                let pts = interleaved_groups(17, 0.2 + 0.01 * i as f64, 0.8);
                steps.push(dc.step(&pts).unwrap());
            }
            runs.push(steps);
        }
        assert_eq!(runs[0], runs[1], "threads=2 diverged from threads=1");
        assert_eq!(runs[0], runs[2], "threads=8 diverged from threads=1");
    }

    #[test]
    fn hierarchical_step_flat_is_bit_identical_to_step() {
        let mut nested = DynamicClusterer::new(hier_config(3, 2));
        let mut flat = DynamicClusterer::new(hier_config(3, 2));
        for i in 0..10 {
            let pts = interleaved_groups(11, 0.2 + 0.01 * i as f64, 0.8);
            let buf: Vec<f64> = pts.iter().flatten().copied().collect();
            let a = nested.step(&pts).unwrap();
            let b = flat.step_flat(&buf, 1).unwrap();
            assert_eq!(a, b, "diverged at step {i}");
        }
        assert_eq!(nested.snapshot(), flat.snapshot());
    }

    #[test]
    fn hierarchical_snapshot_restore_replays_identically() {
        let mut dc = DynamicClusterer::new(hier_config(3, 1));
        for i in 0..5 {
            dc.step(&interleaved_groups(13, 0.2 + 0.01 * i as f64, 0.8))
                .unwrap();
        }
        let snap = dc.snapshot();
        assert!(
            !snap.shard_warm.is_empty(),
            "shard warm centroids travel with the snapshot"
        );
        let mut restored = DynamicClusterer::restore(snap);
        for i in 5..12 {
            let pts = interleaved_groups(13, 0.2 + 0.01 * i as f64, 0.8);
            assert_eq!(
                dc.step(&pts).unwrap(),
                restored.step(&pts).unwrap(),
                "diverged at step {i}"
            );
        }
    }

    #[test]
    fn identity_survives_resharding() {
        // Changing the shard count mid-stream re-partitions the nodes, but
        // the Hungarian matching runs over node-level history, so final
        // labels must not flip.
        let mut dc = DynamicClusterer::new(hier_config(2, 1));
        let s1 = dc.step(&interleaved_groups(12, 0.2, 0.8)).unwrap();
        let snap = dc.snapshot();
        for shards in [1, 3, 4, 6] {
            let mut snap = snap.clone();
            snap.config.compute.shards = shards;
            // Old per-shard warm sets no longer match the new partition;
            // they are shape-filtered away rather than trusted.
            let mut re = DynamicClusterer::restore(snap);
            let s2 = re.step(&interleaved_groups(12, 0.21, 0.79)).unwrap();
            assert_eq!(
                s1.assignments, s2.assignments,
                "labels flipped after re-sharding to {shards}"
            );
        }
    }

    #[test]
    fn more_shards_than_nodes_degrades_gracefully() {
        let mut dc = DynamicClusterer::new(hier_config(64, 2));
        let s = dc.step(&two_groups(0.2, 0.8)).unwrap();
        assert_eq!(s.assignments.len(), 6);
        assert_eq!(s.assignments[0], s.assignments[1]);
        assert_ne!(s.assignments[0], s.assignments[3]);
    }

    #[test]
    fn hierarchical_rejects_bad_input() {
        let mut dc = DynamicClusterer::new(hier_config(2, 1));
        assert!(dc.step(&[]).is_err());
        assert!(dc.step_flat(&[], 1).is_err());
        assert!(dc.step_flat(&[0.1, 0.2, 0.3], 2).is_err());
        let ragged = vec![vec![0.1], vec![0.2, 0.3]];
        assert!(matches!(
            dc.step(&ragged),
            Err(ClusteringError::DimensionMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn multidimensional_points_work() {
        // Joint-vector mode (Table I): 2-D points.
        let mut dc = DynamicClusterer::new(DynamicClustererConfig {
            k: 2,
            ..Default::default()
        });
        let points = vec![
            vec![0.1, 0.2],
            vec![0.12, 0.22],
            vec![0.9, 0.8],
            vec![0.88, 0.82],
        ];
        let s = dc.step(&points).unwrap();
        assert_eq!(s.assignments[0], s.assignments[1]);
        assert_ne!(s.assignments[0], s.assignments[2]);
        assert_eq!(s.centroids[s.assignments[0]].len(), 2);
    }
}
