/// The result of a clustering pass: per-item assignments plus per-cluster
/// centroids and sizes.
///
/// Returned by [`Bsas::cluster`](crate::Bsas::cluster). The adaptive
/// distance filter reads the
/// centroid's velocity component of each cluster to size that cluster's
/// distance threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<usize>,
    centroids: Vec<Vec<f64>>,
    sizes: Vec<usize>,
}

impl Clustering {
    /// Assembles a clustering result.
    ///
    /// # Panics
    ///
    /// Panics when the invariants do not hold: every assignment must index a
    /// centroid, and sizes must agree with the assignments.
    #[must_use]
    pub fn new(assignments: Vec<usize>, centroids: Vec<Vec<f64>>) -> Self {
        let mut sizes = vec![0usize; centroids.len()];
        for &a in &assignments {
            assert!(a < centroids.len(), "assignment {a} out of range");
            sizes[a] += 1;
        }
        Clustering {
            assignments,
            centroids,
            sizes,
        }
    }

    /// Number of clusters formed.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.centroids.len()
    }

    /// Number of clustered items.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.assignments.len()
    }

    /// The cluster index item `item` was assigned to.
    ///
    /// # Panics
    ///
    /// Panics when `item` is out of range.
    #[must_use]
    pub fn assignment(&self, item: usize) -> usize {
        self.assignments[item]
    }

    /// All assignments, indexed by item.
    #[must_use]
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// The centroid (mean feature vector) of cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics when `cluster` is out of range.
    #[must_use]
    pub fn centroid(&self, cluster: usize) -> &[f64] {
        &self.centroids[cluster]
    }

    /// All centroids, indexed by cluster.
    #[must_use]
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of members in cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics when `cluster` is out of range.
    #[must_use]
    pub fn size(&self, cluster: usize) -> usize {
        self.sizes[cluster]
    }

    /// The items belonging to cluster `cluster`.
    pub fn members(&self, cluster: usize) -> impl Iterator<Item = usize> + '_ {
        self.assignments
            .iter()
            .enumerate()
            .filter(move |(_, &a)| a == cluster)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Clustering {
        Clustering::new(vec![0, 0, 1], vec![vec![1.0], vec![5.0]])
    }

    #[test]
    fn counts_and_sizes() {
        let c = sample();
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.item_count(), 3);
        assert_eq!(c.size(0), 2);
        assert_eq!(c.size(1), 1);
    }

    #[test]
    fn members_enumerates_items() {
        let c = sample();
        assert_eq!(c.members(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.members(1).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_assignment() {
        let _ = Clustering::new(vec![0, 3], vec![vec![1.0]]);
    }

    #[test]
    fn empty_clustering_is_valid() {
        let c = Clustering::new(vec![], vec![]);
        assert_eq!(c.cluster_count(), 0);
        assert_eq!(c.item_count(), 0);
    }
}
