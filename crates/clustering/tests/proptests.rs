//! Property-based tests for clustering invariants.

use proptest::prelude::*;
use utilcast_clustering::hungarian::{brute_force_max_matching, max_weight_matching};
use utilcast_clustering::kmeans::{nearest_centroid, sq_dist, KMeans, KMeansConfig};
use utilcast_clustering::quality::{silhouette, within_cluster_sse};
use utilcast_clustering::similarity::{intersection_similarity, jaccard_similarity};
use utilcast_linalg::Matrix;

proptest! {
    /// The Hungarian algorithm must equal the brute-force optimum for
    /// matrices small enough to enumerate.
    #[test]
    fn hungarian_is_optimal(
        n in 1usize..6,
        data in proptest::collection::vec(0.0f64..100.0, 36),
    ) {
        let w = Matrix::from_vec(n, n, data[..n * n].to_vec());
        let h = max_weight_matching(&w);
        let b = brute_force_max_matching(&w);
        prop_assert!((h.total_weight - b.total_weight).abs() < 1e-9,
            "hungarian {} != brute force {}", h.total_weight, b.total_weight);
    }

    /// The assignment must always be a permutation.
    #[test]
    fn hungarian_returns_permutation(
        n in 1usize..8,
        data in proptest::collection::vec(-50.0f64..50.0, 64),
    ) {
        let w = Matrix::from_vec(n, n, data[..n * n].to_vec());
        let m = max_weight_matching(&w);
        let mut seen = vec![false; n];
        for &c in &m.assignment {
            prop_assert!(c < n);
            prop_assert!(!seen[c]);
            seen[c] = true;
        }
    }

    /// Every point must be assigned to its nearest centroid after fitting
    /// (Lloyd's algorithm postcondition).
    #[test]
    fn kmeans_assigns_nearest(
        seed in 0u64..100,
        raw in proptest::collection::vec(0.0f64..1.0, 12..40),
    ) {
        let points: Vec<Vec<f64>> = raw.iter().map(|&v| vec![v]).collect();
        let res = KMeans::new(KMeansConfig { k: 3, seed, ..Default::default() })
            .fit(&points)
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            let (nearest, nd) = nearest_centroid(p, &res.centroids);
            let ad = sq_dist(p, &res.centroids[res.assignments[i]]);
            prop_assert!(ad <= nd + 1e-12, "point {i} not at nearest centroid");
            let _ = nearest;
        }
    }

    /// Parallel execution must be bit-identical to the sequential path for
    /// any thread count.
    #[test]
    fn kmeans_thread_count_invariant(
        seed in 0u64..30,
        threads in 2usize..9,
        raw in proptest::collection::vec(0.0f64..1.0, 12..40),
    ) {
        let points: Vec<Vec<f64>> = raw.iter().map(|&v| vec![v]).collect();
        let sequential = KMeans::new(KMeansConfig { k: 3, seed, threads: 1, ..Default::default() })
            .fit(&points)
            .unwrap();
        let parallel = KMeans::new(KMeansConfig { k: 3, seed, threads, ..Default::default() })
            .fit(&points)
            .unwrap();
        prop_assert_eq!(sequential, parallel);
    }

    /// Inertia must equal the sum of squared distances to assigned centroids.
    #[test]
    fn kmeans_inertia_consistent(
        seed in 0u64..50,
        raw in proptest::collection::vec(0.0f64..1.0, 8..30),
    ) {
        let points: Vec<Vec<f64>> = raw.iter().map(|&v| vec![v]).collect();
        let res = KMeans::new(KMeansConfig { k: 2, seed, ..Default::default() })
            .fit(&points)
            .unwrap();
        let manual: f64 = points
            .iter()
            .enumerate()
            .map(|(i, p)| sq_dist(p, &res.centroids[res.assignments[i]]))
            .sum();
        prop_assert!((res.inertia - manual).abs() < 1e-9);
    }

    /// With a single history step, the intersection similarity is exactly the
    /// contingency table, so its total equals the node count.
    #[test]
    fn similarity_total_is_node_count(
        assignments in proptest::collection::vec(0usize..4, 1..60),
        prev in proptest::collection::vec(0usize..4, 1..60),
    ) {
        let n = assignments.len().min(prev.len());
        let new = &assignments[..n];
        let old = &prev[..n];
        let w = intersection_similarity(new, &[old], 1, 4).unwrap();
        let total: f64 = (0..4).flat_map(|r| (0..4).map(move |c| (r, c)))
            .map(|(r, c)| w[(r, c)]).sum();
        prop_assert_eq!(total, n as f64);
    }

    /// Longer look-back windows can only remove nodes from the similarity
    /// counts (Eq. 10 intersects more sets), never add them.
    #[test]
    fn similarity_monotone_in_window(
        new in proptest::collection::vec(0usize..3, 20),
        h1 in proptest::collection::vec(0usize..3, 20),
        h2 in proptest::collection::vec(0usize..3, 20),
    ) {
        let short = intersection_similarity(&new, &[&h1], 1, 3).unwrap();
        let long = intersection_similarity(&new, &[&h1, &h2], 2, 3).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                prop_assert!(long[(r, c)] <= short[(r, c)] + 1e-12);
            }
        }
    }

    /// Jaccard entries are in [0, 1] and equal 1 only for identical
    /// member sets.
    #[test]
    fn jaccard_bounded(
        new in proptest::collection::vec(0usize..3, 1..40),
        prev_seed in proptest::collection::vec(0usize..3, 1..40),
    ) {
        let n = new.len().min(prev_seed.len());
        let w = jaccard_similarity(&new[..n], &prev_seed[..n], 3).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                prop_assert!((0.0..=1.0).contains(&w[(r, c)]));
            }
        }
        let diag = jaccard_similarity(&new[..n], &new[..n], 3).unwrap();
        for r in 0..3 {
            let size = new[..n].iter().filter(|&&a| a == r).count();
            if size > 0 {
                prop_assert_eq!(diag[(r, r)], 1.0);
            }
        }
    }
}

proptest! {
    /// Silhouette is always within [-1, 1] for any labelled point set.
    #[test]
    fn silhouette_bounded(
        raw in proptest::collection::vec(0.0f64..1.0, 4..30),
        labels in proptest::collection::vec(0usize..3, 4..30),
    ) {
        let n = raw.len().min(labels.len());
        let points: Vec<Vec<f64>> = raw[..n].iter().map(|&v| vec![v]).collect();
        let s = silhouette(&points, &labels[..n]).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "silhouette {}", s);
    }

    /// The k-means assignment minimizes within-cluster SSE over *any*
    /// relabelling of individual points to existing centroids.
    #[test]
    fn kmeans_sse_is_pointwise_optimal(
        seed in 0u64..30,
        raw in proptest::collection::vec(0.0f64..1.0, 9..25),
    ) {
        let points: Vec<Vec<f64>> = raw.iter().map(|&v| vec![v]).collect();
        let res = KMeans::new(KMeansConfig { k: 3, seed, ..Default::default() })
            .fit(&points)
            .unwrap();
        let base = within_cluster_sse(&points, &res.assignments, &res.centroids);
        // Moving any single point to any other centroid cannot reduce SSE.
        for i in 0..points.len() {
            for c in 0..res.centroids.len() {
                let mut alt = res.assignments.clone();
                alt[i] = c;
                let sse = within_cluster_sse(&points, &alt, &res.centroids);
                prop_assert!(sse >= base - 1e-9, "moving point {i} to {c} reduced SSE");
            }
        }
    }
}
