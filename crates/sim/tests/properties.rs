//! Property-based tests for the seed stream and streaming statistics.

use mobigrid_sim::stats::{Rmse, Welford};
use mobigrid_sim::SeedStream;
use proptest::prelude::*;

proptest! {
    #[test]
    fn seed_stream_is_deterministic_and_spread(master in any::<u64>(), idx in 0u64..10_000) {
        let s = SeedStream::new(master);
        prop_assert_eq!(s.seed_for(idx), SeedStream::new(master).seed_for(idx));
        prop_assert_ne!(s.seed_for(idx), s.seed_for(idx + 1));
    }

    #[test]
    fn welford_matches_naive_computation(xs in prop::collection::vec(-1e3..1e3f64, 1..100)) {
        let w: Welford = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6);
        prop_assert!((w.population_variance() - var).abs() < 1e-6);
    }

    #[test]
    fn welford_merge_is_order_independent(
        xs in prop::collection::vec(-1e3..1e3f64, 1..50),
        ys in prop::collection::vec(-1e3..1e3f64, 1..50),
    ) {
        let a: Welford = xs.iter().copied().collect();
        let b: Welford = ys.iter().copied().collect();
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-6);
    }

    #[test]
    fn rmse_is_scale_equivariant(xs in prop::collection::vec(0.0..100.0f64, 1..50), k in 0.1..10.0f64) {
        let mut base = Rmse::new();
        let mut scaled = Rmse::new();
        for x in &xs {
            base.push(*x);
            scaled.push(*x * k);
        }
        prop_assert!((scaled.value() - base.value() * k).abs() < 1e-6 * scaled.value().max(1.0));
    }

    /// Splitting a stream of errors into two partial accumulators and
    /// merging them preserves the observation count exactly and the RMSE
    /// up to float re-association.
    #[test]
    fn rmse_partial_merge_matches_sequential_push(
        xs in prop::collection::vec(0.0..1e3f64, 0..120),
        split in 0usize..120,
    ) {
        let mut whole = Rmse::new();
        for x in &xs {
            whole.push(*x);
        }
        let cut = split.min(xs.len());
        let mut left = Rmse::new();
        let mut right = Rmse::new();
        for x in &xs[..cut] {
            left.push(*x);
        }
        for x in &xs[cut..] {
            right.push(*x);
        }
        let mut merged = left;
        merged.merge(&right);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.value() - whole.value()).abs() < 1e-9 * whole.value().max(1.0));
    }

    /// A left-to-right fold of per-shard partials is bit-reproducible:
    /// running the same shard-ordered reduction twice gives identical
    /// floats. This is the exact contract the parallel tick engine uses
    /// to stay deterministic across thread counts.
    #[test]
    fn rmse_shard_ordered_fold_is_bit_reproducible(
        xs in prop::collection::vec(0.0..1e3f64, 1..200),
        shard in 1usize..64,
    ) {
        let fold = || {
            let mut total = Rmse::new();
            for chunk in xs.chunks(shard) {
                let mut part = Rmse::new();
                for x in chunk {
                    part.push(*x);
                }
                total.merge(&part);
            }
            total
        };
        let (a, b) = (fold(), fold());
        prop_assert_eq!(a.count(), b.count());
        // Bit-identical, not merely close.
        prop_assert_eq!(a.value().to_bits(), b.value().to_bits());

        // Merging counts is exact u64 addition regardless of shard size.
        prop_assert_eq!(a.count(), xs.len() as u64);
    }
}
