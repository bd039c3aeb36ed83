//! Per-node memory footprint of the benchmark populations.
//!
//! ```text
//! cargo run --release -p mobigrid-bench --example footprint
//! ```
//!
//! A counting global allocator (std only) tracks the live heap bytes and
//! the number of allocations. For `city_1140` (8×8 grid city, dense
//! driver) and the `sim_idle` population (20,000 parked nodes plus 200
//! walkers, sparse driver), each at one thread, it prints:
//!
//! * the live heap bytes per node after the build and after 100 warm-up
//!   ticks (perfbench's `sim_idle` warm-up),
//! * the allocations per node during the warm-up,
//! * the process's peak resident set (`VmHWM`) so far, from
//!   `/proc/self/status` (absent without `/proc`). The workloads run in
//!   this order in one process, so the `sim_idle` line reads the larger
//!   of the two peaks.
//!
//! The allocator counts requested bytes, not the allocator's own
//! per-block overhead, so `VmHWM` also shows what rounding and
//! fragmentation add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mobigrid_adf::{MobileGridSim, TickDriver};
use mobigrid_bench::{build_city_sim, build_idle_sim};

/// Counts every allocation and the bytes currently live.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Ticks stepped before the second reading, as perfbench's `sim_idle`.
const WARMUP_TICKS: u64 = 100;

/// The process's peak resident set, in KiB.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes live now beyond `base`, an earlier reading; negative when more
/// was freed than allocated since.
fn live_since(base: u64) -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(base) as i64
}

fn measure(name: &str, build: impl FnOnce() -> MobileGridSim) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    let mut sim = build();
    let nodes = sim.columns().len() as f64;
    let built = live_since(base);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..WARMUP_TICKS {
        sim.step();
    }
    let warm = live_since(base);
    let warmup_allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let hwm = vm_hwm_kb().map_or_else(|| "n/a".to_string(), |kb| format!("{kb} KiB"));
    println!(
        "{name:<9} {nodes:>6} nodes  heap/node built {:>7.1} B  warm {:>7.1} B  \
         warm-up allocs/node {:>6.2}  VmHWM {hwm}",
        built as f64 / nodes,
        warm as f64 / nodes,
        warmup_allocations as f64 / nodes,
    );
    drop(sim);
}

fn main() {
    measure("city_1140", || build_city_sim(1, (8, 8), 1));
    measure("sim_idle", || {
        build_idle_sim(1, 20_000, 200, TickDriver::Sparse)
    });
}
