//! The clusterer's step as it was before the in-place one: the allocating
//! k-means entry points (whose scalar descent `utilcast-clustering` holds
//! to its own verbatim oracle) and the re-indexing back half verbatim — a
//! fresh Eq. 10 matrix through the validating
//! [`intersection_similarity`], the Hungarian solver on every step, and
//! relabelled, history and warm-centroid copies allocated per step. The
//! `differential` tests compare the production step against it bit for
//! bit. Test support only: nothing here is reachable from a non-test
//! build, and no option selects it.

use super::*;

/// [`DynamicClusterer::step_flat`] as it was, over `dc`'s checkpointed
/// state only (config, history, warm centroids, shard warm sets, `t`).
pub(super) fn step_flat(
    dc: &mut DynamicClusterer,
    flat: &[f64],
    dim: usize,
) -> Result<ClusterStep, ClusteringError> {
    if dc.config.compute.shards > 1 {
        let result = dc.hierarchical_fit(flat, dim)?;
        return finish(dc, result);
    }
    let (km, warm_init) = dc.prepare(dim);
    let result = match warm_init {
        Some(init) => km.fit_from_flat(flat, dim, init)?,
        None => km.fit_flat(flat, dim)?,
    };
    finish(dc, result)
}

/// The re-indexing back half as it was.
pub(super) fn finish(
    dc: &mut DynamicClusterer,
    result: KMeansResult,
) -> Result<ClusterStep, ClusteringError> {
    let k = dc.config.k;
    dc.t += 1;
    let label_space = result.centroids.len().max(k);

    let (assignments, centroids) = if dc.history.is_empty() {
        (result.assignments, result.centroids)
    } else {
        // Build similarity and find the re-indexing permutation.
        let hist_refs: Vec<&[usize]> = dc.history.iter().map(|v| v.as_slice()).collect();
        let w = match dc.config.similarity {
            SimilarityMeasure::Intersection => {
                intersection_similarity(&result.assignments, &hist_refs, dc.config.m, label_space)?
            }
            SimilarityMeasure::Jaccard => {
                jaccard_similarity(&result.assignments, hist_refs[0], label_space)?
            }
        };
        let matching = max_weight_matching_padded(&w);
        // matching.assignment[kmeans_label] = final label.
        let assignments: Vec<usize> = result
            .assignments
            .iter()
            .map(|&a| matching.assignment[a])
            .collect();
        let mut centroids = vec![Vec::new(); result.centroids.len()];
        for (km_label, centroid) in result.centroids.into_iter().enumerate() {
            let final_label = matching.assignment[km_label];
            if final_label < centroids.len() {
                centroids[final_label] = centroid;
            }
        }
        (assignments, centroids)
    };
    dc.history.push_front(assignments.clone());
    let window = dc.config.m.max(1);
    while dc.history.len() > window {
        dc.history.pop_back();
    }
    dc.warm_centroids = Some(centroids.clone());
    Ok(ClusterStep {
        assignments,
        centroids,
        inertia: result.inertia,
    })
}
