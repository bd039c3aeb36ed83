use crate::{euclidean, Clustering};

/// One-shot sequential clustering (BSAS).
///
/// Items are scanned in order; each joins the *nearest* existing cluster when
/// the distance to that cluster's centroid is below the similarity bound α,
/// and opens a new cluster otherwise. Centroids update incrementally as
/// members join, matching the scheme the paper cites for grouping mobile
/// nodes by velocity/direction (§3.2).
///
/// The result depends on scan order — an inherent property of sequential
/// clustering that the paper accepts in exchange for not having to fix the
/// number of clusters up front.
///
/// # Examples
///
/// ```
/// use mobigrid_cluster::Bsas;
///
/// let items = vec![vec![1.0], vec![1.1], vec![9.0]];
/// let c = Bsas::new(0.5).cluster(&items);
/// assert_eq!(c.cluster_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bsas {
    threshold: f64,
    max_clusters: Option<usize>,
}

impl Bsas {
    /// Creates a clusterer with similarity bound `threshold` (the paper's α)
    /// and no cluster-count cap.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is not a positive finite number.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "similarity bound must be positive"
        );
        Bsas {
            threshold,
            max_clusters: None,
        }
    }

    /// Caps the number of clusters; once the cap is reached items always
    /// join their nearest cluster regardless of α.
    #[must_use]
    pub fn with_max_clusters(mut self, max: usize) -> Self {
        assert!(max > 0, "cluster cap must be positive");
        self.max_clusters = Some(max);
        self
    }

    /// The similarity bound α.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Clusters `items` in scan order.
    ///
    /// # Panics
    ///
    /// Panics when items have inconsistent dimensions.
    #[must_use]
    pub fn cluster(&self, items: &[Vec<f64>]) -> Clustering {
        let mut online = OnlineBsas::new(self.threshold);
        if let Some(max) = self.max_clusters {
            online = online.with_max_clusters(max);
        }
        let assignments: Vec<usize> = items.iter().map(|item| online.push(item)).collect();
        Clustering::new(assignments, online.into_centroids())
    }
}

/// Incremental BSAS with running centroids.
///
/// The ADF's cluster manager keeps one of these for its lifetime, clearing
/// it at each reclustering round and pushing each moving node's feature
/// (its mean speed, through [`OnlineBsas::push_scalar`]) and reading back
/// its cluster id immediately. Centroids live in one flat buffer, so a
/// cleared clusterer refills without allocating until it forms more
/// clusters than it ever held.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineBsas {
    threshold: f64,
    max_clusters: Option<usize>,
    /// Feature dimension, fixed by the first push after a clear.
    dim: usize,
    /// Centroids, `dim` values each, cluster after cluster.
    centroids: Vec<f64>,
    counts: Vec<usize>,
}

impl OnlineBsas {
    /// Creates an empty incremental clusterer with similarity bound
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is not a positive finite number.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "similarity bound must be positive"
        );
        OnlineBsas {
            threshold,
            max_clusters: None,
            dim: 0,
            centroids: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Caps the number of clusters (see [`Bsas::with_max_clusters`]).
    ///
    /// # Panics
    ///
    /// Panics when `max` is zero.
    #[must_use]
    pub fn with_max_clusters(mut self, max: usize) -> Self {
        assert!(max > 0, "cluster cap must be positive");
        self.max_clusters = Some(max);
        self
    }

    /// Assigns `item` to a cluster and returns the cluster index, updating
    /// the centroid incrementally.
    ///
    /// # Panics
    ///
    /// Panics when `item`'s dimension differs from previously pushed items.
    pub fn push(&mut self, item: &[f64]) -> usize {
        if self.counts.is_empty() {
            self.dim = item.len();
        }
        let nearest = (0..self.counts.len())
            .map(|i| (i, euclidean(item, self.centroid(i))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));

        let at_cap = self
            .max_clusters
            .is_some_and(|max| self.counts.len() >= max);

        match nearest {
            Some((idx, dist)) if dist < self.threshold || at_cap => {
                // Incremental centroid update: c' = c + (x - c)/(n + 1).
                let n = self.counts[idx] as f64;
                let centroid = &mut self.centroids[idx * self.dim..][..self.dim];
                for (c, x) in centroid.iter_mut().zip(item) {
                    *c += (x - *c) / (n + 1.0);
                }
                self.counts[idx] += 1;
                idx
            }
            _ => {
                self.centroids.extend_from_slice(item);
                self.counts.push(1);
                self.counts.len() - 1
            }
        }
    }

    /// [`OnlineBsas::push`] of the one-dimensional feature `[x]`: the same
    /// distances (`((x − c)·(x − c)).sqrt()`) and centroid updates, bit
    /// for bit, without a slice to build.
    pub fn push_scalar(&mut self, x: f64) -> usize {
        self.push(std::slice::from_ref(&x))
    }

    /// Forgets every cluster, keeping the buffers for the next round.
    pub fn clear(&mut self) {
        self.centroids.clear();
        self.counts.clear();
    }

    /// Number of clusters formed so far.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.counts.len()
    }

    /// Current centroid of cluster `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn centroid(&self, idx: usize) -> &[f64] {
        assert!(idx < self.counts.len(), "cluster {idx} out of range");
        &self.centroids[idx * self.dim..][..self.dim]
    }

    /// Current member count of cluster `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn count(&self, idx: usize) -> usize {
        self.counts[idx]
    }

    /// Consumes the clusterer, returning the centroids.
    #[must_use]
    pub fn into_centroids(self) -> Vec<Vec<f64>> {
        (0..self.counts.len())
            .map(|i| self.centroid(i).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_input_forms_one_cluster() {
        let c = Bsas::new(1.0).cluster(&[vec![5.0]]);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.assignment(0), 0);
        assert_eq!(c.centroid(0), &[5.0]);
    }

    #[test]
    fn empty_input_forms_no_clusters() {
        let c = Bsas::new(1.0).cluster(&[]);
        assert_eq!(c.cluster_count(), 0);
    }

    #[test]
    fn items_within_threshold_share_a_cluster() {
        let items = vec![vec![1.0], vec![1.4], vec![0.8]];
        let c = Bsas::new(1.0).cluster(&items);
        assert_eq!(c.cluster_count(), 1);
        // Centroid is the running mean of members.
        assert!((c.centroid(0)[0] - (1.0 + 1.4 + 0.8) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distant_items_open_new_clusters() {
        let items = vec![vec![1.0], vec![10.0], vec![20.0]];
        let c = Bsas::new(2.0).cluster(&items);
        assert_eq!(c.cluster_count(), 3);
    }

    #[test]
    fn item_joins_nearest_cluster() {
        // Clusters seeded at 0 and 10; item 6 is nearer 10.
        let items = vec![vec![0.0], vec![10.0], vec![6.0]];
        let c = Bsas::new(5.0).cluster(&items);
        assert_eq!(c.assignment(2), c.assignment(1));
    }

    #[test]
    fn smaller_alpha_never_produces_fewer_clusters() {
        let items: Vec<Vec<f64>> = (0..30).map(|i| vec![f64::from(i) * 0.7]).collect();
        let coarse = Bsas::new(5.0).cluster(&items).cluster_count();
        let fine = Bsas::new(0.5).cluster(&items).cluster_count();
        assert!(fine >= coarse);
    }

    #[test]
    fn cap_forces_assignment_to_nearest() {
        let items = vec![vec![0.0], vec![100.0], vec![50.0]];
        let c = Bsas::new(1.0).with_max_clusters(2).cluster(&items);
        assert_eq!(c.cluster_count(), 2);
        // Third item had to join one of the two despite exceeding alpha.
        assert!(c.assignment(2) < 2);
    }

    #[test]
    fn multidimensional_features() {
        // Velocity + heading components.
        let items = vec![
            vec![1.0, 0.0, 1.0],
            vec![1.1, 0.1, 0.9],
            vec![8.0, 1.0, 0.0],
        ];
        let c = Bsas::new(1.0).cluster(&items);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.assignment(0), c.assignment(1));
    }

    #[test]
    fn online_counts_and_centroids_track_pushes() {
        let mut ob = OnlineBsas::new(1.0);
        assert_eq!(ob.push(&[0.0]), 0);
        assert_eq!(ob.push(&[0.5]), 0);
        assert_eq!(ob.push(&[9.0]), 1);
        assert_eq!(ob.cluster_count(), 2);
        assert_eq!(ob.count(0), 2);
        assert_eq!(ob.count(1), 1);
        assert!((ob.centroid(0)[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scalar_pushes_match_slice_pushes_across_clears() {
        // The same scan twice through one cleared clusterer, as scalars,
        // against a fresh clusterer fed one-element slices.
        let speeds = [0.0, 1.2, 0.7, 5.5, 1.9, 6.4, 0.25, f64::MIN_POSITIVE];
        let mut reused = OnlineBsas::new(1.0);
        for _ in 0..2 {
            reused.clear();
            let mut fresh = OnlineBsas::new(1.0);
            for x in speeds {
                assert_eq!(reused.push_scalar(x), fresh.push(&[x]));
            }
            assert_eq!(reused, fresh);
            for i in 0..fresh.cluster_count() {
                assert_eq!(
                    reused.centroid(i)[0].to_bits(),
                    fresh.centroid(i)[0].to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share dimension")]
    fn mixed_dimensions_panic() {
        let mut ob = OnlineBsas::new(1.0);
        ob.push(&[1.0, 2.0]);
        ob.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = Bsas::new(0.0);
    }

    #[test]
    fn scan_order_dependence_is_deterministic() {
        let items = vec![vec![0.0], vec![1.0], vec![2.0]];
        let a = Bsas::new(1.5).cluster(&items);
        let b = Bsas::new(1.5).cluster(&items);
        assert_eq!(a, b);
    }
}
