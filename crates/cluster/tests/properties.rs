//! Property-based tests for the clustering substrate.

use mobigrid_cluster::{euclidean, Bsas};
use proptest::prelude::*;

fn items_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 2), 1..60)
}

proptest! {
    #[test]
    fn every_item_is_assigned_exactly_once(items in items_strategy(), alpha in 0.5..50.0f64) {
        let c = Bsas::new(alpha).cluster(&items);
        prop_assert_eq!(c.item_count(), items.len());
        // Sizes sum to item count.
        let total: usize = (0..c.cluster_count()).map(|i| c.size(i)).sum();
        prop_assert_eq!(total, items.len());
        // No empty clusters in BSAS.
        for i in 0..c.cluster_count() {
            prop_assert!(c.size(i) > 0);
        }
    }

    #[test]
    fn first_member_is_within_alpha_or_opens_cluster(
        items in items_strategy(),
        alpha in 0.5..50.0f64,
    ) {
        // BSAS invariant: at the moment of assignment, the item was within
        // alpha of the (then-current) centroid — we can't check the historic
        // centroid, but a weaker invariant holds: any cluster of size 1 has
        // its sole member exactly at the centroid.
        let c = Bsas::new(alpha).cluster(&items);
        for cl in (0..c.cluster_count()).filter(|&cl| c.size(cl) == 1) {
            let item_idx = c.members(cl).next().unwrap();
            prop_assert!(euclidean(&items[item_idx], c.centroid(cl)) < 1e-9);
        }
    }

    #[test]
    fn centroid_is_mean_of_members(items in items_strategy(), alpha in 0.5..50.0f64) {
        let c = Bsas::new(alpha).cluster(&items);
        for cl in 0..c.cluster_count() {
            let members: Vec<usize> = c.members(cl).collect();
            let n = members.len() as f64;
            for (d, centroid_component) in c.centroid(cl).iter().enumerate() {
                let mean: f64 = members.iter().map(|&i| items[i][d]).sum::<f64>() / n;
                prop_assert!((centroid_component - mean).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cluster_cap_is_respected(items in items_strategy(), max in 1usize..5) {
        let c = Bsas::new(0.5).with_max_clusters(max).cluster(&items);
        prop_assert!(c.cluster_count() <= max);
    }

    #[test]
    fn huge_alpha_collapses_to_one_cluster(items in items_strategy()) {
        let c = Bsas::new(1e6).cluster(&items);
        prop_assert_eq!(c.cluster_count(), 1);
    }
}
