//! Pins the heap a node holds, which `size_of` budgets cannot see.
//!
//! A counting global allocator wraps [`std::alloc::System`] and tallies,
//! on a thread-local counter, every allocation and the bytes currently
//! live. Over the `sim_idle` population shape at a small scale (1,000
//! parked nodes and 64 walkers, sparse driver, one thread) it pins:
//!
//! * the allocations per node on the tick that first sees every node: the
//!   classifier's window ring and the with-LE broker's estimator box, and
//!   nothing else per node;
//! * the live heap bytes per node once the population is warm.
//!
//! Like `zero_alloc.rs`, this lives in its own integration-test binary
//! because a `#[global_allocator]` is process-wide and needs `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobigrid_adf::{RuntimeOptions, TickDriver};
use mobigrid_bench::build_idle_sim_with;

/// Counts allocations and live bytes made by the current thread. With one
/// simulation thread every byte the sim holds is allocated and freed on
/// the test's own thread.
struct CountingAllocator;

thread_local! {
    // `const` init keeps first access from allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn count(allocated: usize, freed: usize) {
    LIVE_BYTES.with(|b| b.set(b.get() + allocated as i64 - freed as i64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const PARKED: usize = 1_000;
const WALKERS: usize = 64;
const NODES: f64 = (PARKED + WALKERS) as f64;

#[test]
fn a_node_costs_what_it_holds() {
    let base = live_bytes();
    let mut sim = build_idle_sim_with(
        1,
        PARKED,
        WALKERS,
        RuntimeOptions {
            driver: TickDriver::Sparse,
            ..RuntimeOptions::default()
        },
    );

    // First sight: the ADF creates every node's state, its window ring
    // allocated once at full size, and the with-LE broker boxes an
    // estimator for every node it first hears from (the filter passes
    // every first update). The tick's other allocations are shared: the
    // ADF's table (one exact-size block), one new-sleeper list per shard
    // and a few one-off buffers, under 0.05 per node together.
    let before = allocation_count();
    let first = sim.step();
    let first_sight = (allocation_count() - before) as f64 / NODES;
    assert_eq!(
        first.sent as usize,
        PARKED + WALKERS,
        "every node heard from"
    );
    assert!(
        first_sight <= 2.05,
        "first sight allocated {first_sight:.3} times per node (budget: ring and estimator)"
    );

    // Warm: windows full, the parked nodes asleep, four reclusterings and
    // several staleness-refresh rounds behind. Nothing a node holds grows
    // after first sight.
    let before = allocation_count();
    for _ in 1..100 {
        sim.step();
    }
    let later = (allocation_count() - before) as f64 / NODES;
    assert!(
        later <= 0.05,
        "99 ticks after first sight allocated {later:.3} times per node"
    );
    let held = (live_bytes() - base) as f64 / NODES;
    assert!(
        held <= 1_301.0,
        "a warm node holds {held:.1} B of heap (budget 1,301 B)"
    );
    drop(sim);
}
