//! The `trace` analyses size their per-node state from the trace's own
//! population, never from the largest node id a line names: a crafted
//! line naming node `u32::MAX` is answered with an error, and nothing
//! large is allocated on the way.
//!
//! A capped global allocator wraps [`std::alloc::System`], records the
//! largest request, and refuses any request above [`CAP`], so a
//! regression aborts this test binary instead of claiming tens of
//! gigabytes. Installing a `#[global_allocator]` is process-wide and needs
//! `unsafe`, hence its own integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mobigrid_experiments::trace;

/// The largest single allocation this binary grants (256 MiB).
const CAP: usize = 256 << 20;

struct CappedAllocator;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout, or
// returns null (an allowed allocation failure) for oversized requests.
unsafe impl GlobalAlloc for CappedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CappedAllocator = CappedAllocator;

/// A one-tick trace whose only event names node `u32::MAX`.
const CRAFTED: &str = concat!(
    "{\"type\":\"meta\",\"format\":\"mobigrid-telemetry/2\",\"counters\":0,\"gauges\":0,",
    "\"histograms\":0,\"spans\":0,\"events\":1,\"spans_dropped\":0,\"events_dropped\":0}\n",
    "{\"type\":\"event\",\"tick\":1,\"seq\":0,\"kind\":\"lu_generated\",",
    "\"node\":4294967295,\"seq\":1,\"x\":1.0,\"y\":2.0}\n",
);

#[test]
fn a_huge_node_id_is_an_error_not_an_allocation() {
    let parsed = trace::parse_trace(CRAFTED).expect("the crafted line is well-formed");
    let err = trace::check(&parsed).expect_err("check must reject the id");
    assert!(err.contains("4294967295"), "{err}");
    trace::summary(&parsed).expect_err("the summary must reject the id");

    // The CLI answers with an error, which the binary turns into a
    // non-zero exit.
    let path = std::env::temp_dir().join(format!(
        "mobigrid-trace-bounds-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, CRAFTED).expect("temp file");
    let args = [path.to_string_lossy().into_owned(), "--check".to_string()];
    let outcome = trace::run_main(args);
    std::fs::remove_file(&path).ok();
    assert!(outcome.is_err(), "trace --check accepted the crafted trace");

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "largest allocation was {largest} bytes");
}
