//! Deterministic sharded parallel execution.
//!
//! [`ShardPool`] runs one closure per *shard* — an owned unit of work,
//! typically a bundle of mutable sub-slices produced by `chunks_mut` — across
//! a bounded set of scoped worker threads, and hands the results back **in
//! shard order**. Shard structure must be a pure function of problem size,
//! never of the thread count; combined with an order-preserving reduction
//! this makes results bit-identical whether the pool runs on one thread or
//! sixteen. Threads only decide *where* a shard executes, not *what* it
//! computes or in which order its output is consumed.
//!
//! # Examples
//!
//! ```
//! use mobigrid_sim::par::ShardPool;
//!
//! let mut data = vec![1u64; 100];
//! let pool = ShardPool::new(4);
//! let shards: Vec<&mut [u64]> = data.chunks_mut(32).collect();
//! let sums = pool.run(shards, |_, shard| {
//!     shard.iter_mut().for_each(|x| *x += 1);
//!     shard.iter().sum::<u64>()
//! });
//! // Results arrive in shard order regardless of scheduling.
//! assert_eq!(sums, vec![64, 64, 64, 8]);
//! ```

/// A bounded executor for shard-parallel work with deterministic,
/// shard-ordered results.
///
/// With `threads == 1` (or a single shard) everything runs inline on the
/// caller's thread — no spawning, no overhead, and trivially the same
/// results as the parallel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPool {
    threads: usize,
}

impl Default for ShardPool {
    fn default() -> Self {
        ShardPool { threads: 1 }
    }
}

impl ShardPool {
    /// Creates a pool that uses up to `threads` worker threads per parallel
    /// region. `0` is treated as `1`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ShardPool {
            threads: threads.max(1),
        }
    }

    /// The configured thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(shard_index, shard)` for every shard and returns the
    /// results in shard order.
    ///
    /// Shards are striped round-robin across `min(threads, shards)` scoped
    /// workers; each worker processes its stripe in ascending shard order.
    /// Because `f` receives the shard index, and results are re-assembled by
    /// index, the output is independent of which worker ran which shard.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard closure.
    pub fn run<T, R, F>(&self, shards: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(shards.len());
        self.run_into(shards, &mut out, f);
        out
    }

    /// Like [`ShardPool::run`], but takes the shards as an exact-size
    /// iterator and writes the results into `out` (cleared first, shard
    /// order), reusing `out`'s existing capacity.
    ///
    /// This is the steady-state building block: with `threads == 1` the
    /// shards run inline on the caller's thread and — once `out` has grown
    /// to its high-water capacity — the call performs **no heap
    /// allocations**. With more threads the call allocates transient stripe
    /// and result scaffolding (thread spawning dwarfs that cost anyway);
    /// results are still bit-identical to the inline path.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard closure.
    pub fn run_into<I, R, F>(&self, shards: I, out: &mut Vec<R>, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        R: Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        out.clear();
        let shards = shards.into_iter();
        let n = shards.len();
        if self.threads == 1 || n <= 1 {
            out.extend(shards.enumerate().map(|(i, s)| f(i, s)));
            return;
        }

        let workers = self.threads.min(n);
        let mut stripes: Vec<Vec<(usize, I::Item)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, shard) in shards.enumerate() {
            stripes[i % workers].push((i, shard));
        }

        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .into_iter()
                .map(|stripe| {
                    scope.spawn(move || {
                        stripe
                            .into_iter()
                            .map(|(i, shard)| (i, f(i, shard)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for handle in handles {
                for (i, r) in handle.join().expect("shard worker panicked") {
                    slots[i] = Some(r);
                }
            }
            out.extend(
                slots
                    .into_iter()
                    .map(|r| r.expect("every shard produces exactly one result")),
            );
        });
    }

    /// Executes `f(shard_index, shard)` for every shard, discarding results.
    ///
    /// For phases whose output is written *in place* through mutable slices
    /// carried inside the shard values. The unit results accumulate in a
    /// zero-sized `Vec<()>`, which never touches the heap, so with
    /// `threads == 1` this is completely allocation-free.
    pub fn for_each<I, F>(&self, shards: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let mut unit: Vec<()> = Vec::new();
        self.run_into(shards, &mut unit, f);
    }
}

/// Splits `len` items into contiguous shards of `shard_size` (the last shard
/// may be shorter) and returns the shard count. Shard geometry depends only
/// on `len` and `shard_size`, never on thread count — the cornerstone of the
/// determinism contract.
#[must_use]
pub fn shard_count(len: usize, shard_size: usize) -> usize {
    assert!(shard_size > 0, "shard size must be positive");
    len.div_ceil(shard_size)
}

/// The items of `items` at `indices`, which ascend, each with its index.
/// Skipped items cost one `nth` each, which per-shard iterators
/// (`chunks_mut`, `iter_mut` and zips of them) do in O(1), so a few
/// chosen shards of a large population cost only themselves.
///
/// # Panics
///
/// The returned iterator panics when `indices` does not ascend or names
/// an index past `items`.
///
/// # Examples
///
/// ```
/// use mobigrid_sim::par::select;
///
/// let mut data = [0u8; 10];
/// for (shard, chunk) in select(data.chunks_mut(4), [0, 2]) {
///     chunk.fill(shard as u8 + 1);
/// }
/// assert_eq!(data, [1, 1, 1, 1, 0, 0, 0, 0, 3, 3]);
/// ```
pub fn select<T, I>(items: T, indices: I) -> impl ExactSizeIterator<Item = (usize, T::Item)>
where
    T: IntoIterator,
    I: IntoIterator<Item = usize>,
    I::IntoIter: ExactSizeIterator,
{
    let mut items = items.into_iter();
    // The first index no earlier item has handed out or skipped.
    let mut next = 0;
    indices.into_iter().map(move |index| {
        let skip = index.checked_sub(next).expect("indices ascend");
        next = index + 1;
        (index, items.nth(skip).expect("an index within the items"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = ShardPool::new(1).run(items.clone(), |i, x| x * 3 + i as u64);
        for threads in [2, 3, 4, 8] {
            let par = ShardPool::new(threads).run(items.clone(), |i, x| x * 3 + i as u64);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_shard_order() {
        let out = ShardPool::new(4).run((0..100usize).collect(), |i, x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_chunks_round_trip() {
        let mut data = vec![0u32; 1000];
        let pool = ShardPool::new(4);
        let shards: Vec<(usize, &mut [u32])> = data.chunks_mut(64).enumerate().collect();
        pool.run(shards, |_, (base, chunk)| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = (base * 64 + off) as u32;
            }
        });
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ShardPool::new(0).threads(), 1);
    }

    #[test]
    fn run_into_reuses_the_output_buffer() {
        let pool = ShardPool::new(1);
        let mut out: Vec<usize> = Vec::new();
        pool.run_into(0..10usize, &mut out, |i, x| x + i);
        assert_eq!(out, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        let cap = out.capacity();
        let ptr = out.as_ptr();
        pool.run_into(0..10usize, &mut out, |_, x| x);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(out.capacity(), cap, "capacity must be retained");
        assert_eq!(out.as_ptr(), ptr, "buffer must not be reallocated");
    }

    #[test]
    fn run_into_matches_run_across_thread_counts() {
        let items: Vec<u64> = (0..37).collect();
        let reference = ShardPool::new(1).run(items.clone(), |i, x| x * 3 + i as u64);
        for threads in [1, 2, 4, 8] {
            let mut out = Vec::new();
            ShardPool::new(threads).run_into(items.clone(), &mut out, |i, x| x * 3 + i as u64);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn for_each_writes_through_disjoint_slices() {
        for threads in [1, 4] {
            let mut data = vec![0u32; 300];
            let pool = ShardPool::new(threads);
            pool.for_each(data.chunks_mut(64).enumerate(), |_, (base, chunk)| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base * 64 + off) as u32;
                }
            });
            let expect: Vec<u32> = (0..300).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn shard_count_is_ceiling_division() {
        assert_eq!(shard_count(0, 64), 0);
        assert_eq!(shard_count(1, 64), 1);
        assert_eq!(shard_count(64, 64), 1);
        assert_eq!(shard_count(65, 64), 2);
        assert_eq!(shard_count(140, 64), 3);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = ShardPool::new(4).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }
}
